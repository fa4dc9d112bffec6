import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import quad

from rechargetime import analytic
from rechargetime.analytic import (
    _log_factorial,
    _normal_cdf,
    _normal_law,
    _packet_sum_cdf,
    _poisson_weights,
    _poisson_window,
    _tail_sums,
    nonlinear_cdf,
    packet_count_pmf,
    per_packet_cdf,
    poisson_cdf_exp_exact,
    poisson_cdf_normal,
    renewal_cdf_clt,
    renewal_mean_tau,
    renewal_var_tau,
)
from rechargetime.battery import LinearBattery, NonLinearBattery
from rechargetime.distributions import Deterministic, Exponential, Gamma, InverseGaussian, Uniform
from rechargetime.renewal import ArrivalProcess, Mode
from rechargetime.stats import dkw_band


# exponential inter-arrivals and packets, both of mean 1
EXP_EXP = (ArrivalProcess(Exponential(1.0)), Exponential(1.0))


def law_with_moments(mean, variance):
    """The gamma law of this mean and variance, or a point mass where its shape is not a finite float.

    At a variance of 0, or one so small that mean^2 / variance overflows, the
    law is a point mass to float precision.
    """
    shape = mean**2 / variance if variance else math.inf
    if not math.isfinite(shape):
        return Deterministic(mean)
    return Gamma(shape, variance / mean)


def erlang_double_sum_cdf(u, t, lam, xbar, terms):
    """Independent re-derivation via the raw double sum (no gamma functions):

    P = e^{-(lam t + u/xbar)} sum_{n>=1} (lam t)^n / n! * sum_{i<n} (u/xbar)^i / i!

    Plain floating arithmetic, so valid for a small number of terms only.
    """
    total = 0.0
    for n in range(1, terms + 1):
        w = (lam * t) ** n / math.factorial(n)
        inner = sum((u / xbar) ** i / math.factorial(i) for i in range(n))
        total += w * inner
    return math.exp(-(lam * t + u / xbar)) * total


class TestPoissonNormalSeries:
    def test_zero_time(self):
        assert poisson_cdf_normal(20.0, 0.0, 1.0, 1.0, 1.0) == 0.0

    def test_large_time_limit(self):
        assert poisson_cdf_normal(20.0, 100.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_matches_exact_for_exponential_packets(self):
        # the normal approximation should track the exact formula
        for t in (5.0, 15.0, 20.0, 30.0):
            approx = poisson_cdf_normal(20.0, t, 1.0, 1.0, 1.0)
            exact = poisson_cdf_exp_exact(20.0, t, 1.0, 1.0)
            assert abs(approx - exact) < 0.015

    def test_deterministic_packets_use_indicator(self):
        # with sigma = 0 the n-fold sum is a step: P = P(Poisson(t) > u/c)
        u, c, t = 20.0, 3.0, 10.0
        need = math.floor(u / c) + 1  # arrivals needed to strictly exceed u
        expected = float(special.gammainc(need, t))  # P(N >= need)
        assert poisson_cdf_normal(u, t, 1.0, c, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_log_space_survives_large_lambda_t(self):
        val = poisson_cdf_normal(20.0, 500.0, 1.0, 1.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("u,expected", [(90.0, 0.519724), (150.0, 0.515309)])
    def test_large_threshold_keeps_every_term(self, u, expected):
        # a fixed cut at n = 100 read 0.532 at u = 90 and 1.0 at u = 150
        n = np.arange(3000)
        oracle = 1.0 - np.sum(stats.poisson.pmf(n, u + 1.0) * stats.norm.cdf((u - n) / np.sqrt(np.maximum(n, 1))))
        val = poisson_cdf_normal(u, u + 1.0, 1.0, 1.0, 1.0)
        assert val == pytest.approx(oracle, abs=1e-9)
        assert val == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_time(self):
        vals = [poisson_cdf_normal(20.0, t, 1.0, 0.5, 0.3) for t in np.linspace(0, 80, 200)]
        assert np.all(np.diff(vals) >= -1e-12)


class TestPoissonExactSeries:
    def test_q1_is_exp(self):
        for x in (0.1, 1.0, 5.0):
            assert special.gammaincc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 20.0, 100.0])
    def test_truncated_exponential_sum_identity(self, x):
        # sum_{i<n} x^i/i! == e^x * Q(n, x)
        for n in range(1, 51):
            lhs = sum(x**i / math.factorial(i) for i in range(n))
            rhs = math.exp(x) * special.gammaincc(n, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)

    def test_against_independent_erlang_series(self):
        # dual-route check of the same algebra, small n so naive floats are fine;
        # 60 terms leave under 1e-15 of Poisson(8) mass out of the oracle
        for u in (2.0, 5.0):
            for t in (1.0, 4.0, 8.0):
                exact = poisson_cdf_exp_exact(u, t, 1.0, 1.0)
                oracle = erlang_double_sum_cdf(u, t, 1.0, 1.0, 60)
                assert exact == pytest.approx(oracle, abs=1e-10)

    def test_zero_time(self):
        assert poisson_cdf_exp_exact(20.0, 0.0, 1.0, 1.0) == 0.0

    def test_stochastic_ordering_in_threshold(self):
        for t in np.linspace(0.5, 60, 40):
            p5 = poisson_cdf_exp_exact(5.0, t, 1.0, 1.0)
            p10 = poisson_cdf_exp_exact(10.0, t, 1.0, 1.0)
            p20 = poisson_cdf_exp_exact(20.0, t, 1.0, 1.0)
            assert p5 >= p10 >= p20


def quadrature_mean(cdf, horizon: float) -> float:
    """E[tau] = int_0^inf (1 - P(tau <= t)) dt, cut at a horizon past the tail."""
    return quad(lambda t: 1.0 - cdf(t), 0, horizon, limit=400)[0]


class TestPoissonMean:
    @pytest.mark.parametrize("u", [5.0, 10.0, 20.0])
    def test_mean_consistency_with_exact_cdf_quadrature(self, u):
        # exponential packets of mean 1 cross after 1 + Poisson(u) packets, so
        # E[tau] = (1 + u / Xbar) / lam; quad's absolute tolerance is 1.5e-8
        m_quad = quadrature_mean(lambda t: poisson_cdf_exp_exact(u, t, 1.0, 1.0), 60 + 10 * u)
        assert m_quad == pytest.approx(1.0 + u, rel=1e-8)

    def test_deterministic_packets(self):
        # ceil-counting: E[tau] = (1 + floor(u/c)) / lam
        def mean(mode):
            return quadrature_mean(lambda t: poisson_cdf_normal(20.0, t, 1.0, 3.0, 0.0, mode=mode), 100.0)

        assert mean(Mode.EQUILIBRIUM) == pytest.approx(7.0)
        # pure mode: the packet at the origin is one of the seven
        assert mean(Mode.PURE) == pytest.approx(6.0)

    def test_pure_mode_first_packet_crosses(self):
        # the packet at the origin already lifts the level above u: tau = 0
        curve = poisson_cdf_normal(2.0, [0.0, 5.0], 1.0, 3.0, 0.0, mode=Mode.PURE)
        np.testing.assert_array_equal(curve, 1.0)


class TestRenewalAsymptotics:
    def test_exp_exp_mean_21(self):
        assert renewal_mean_tau(20.0, *EXP_EXP) == pytest.approx(21.0)

    def test_exp_exp_var_41(self):
        # V[A0] + gamma2 u / Xbar^3 = 1 + 2 * 20
        assert renewal_var_tau(20.0, *EXP_EXP) == pytest.approx(41.0)

    def test_deterministic_laws_have_zero_gamma2(self):
        arrival, packet = ArrivalProcess(Deterministic(2.0)), Deterministic(3.0)
        assert renewal_mean_tau(20.0, arrival, packet) == pytest.approx(20.0 / (0.5 * 3.0))
        # only residual jitter remains: A0 ~ Uniform(0, 2)
        assert renewal_var_tau(20.0, arrival, packet) == pytest.approx(4.0 / 12.0)

    def test_mean_linear_in_threshold(self):
        arrival, packet = ArrivalProcess(Gamma(1.5, 2.0)), Uniform(0.0, 1.0)
        lam = 1.0 / arrival.interarrival.mean
        delta = renewal_mean_tau(40.0, arrival, packet) - renewal_mean_tau(20.0, arrival, packet)
        assert delta == pytest.approx(20.0 / (lam * packet.mean))

    def test_pure_mode_deterministic_variance_zero(self):
        arrival = ArrivalProcess(Deterministic(2.0), Mode.PURE)
        assert renewal_var_tau(20.0, arrival, Deterministic(3.0)) == 0.0


class TestRenewalClt:
    def test_monotone_in_time(self):
        laws = (ArrivalProcess(Gamma(1.0, 2.0)), Exponential(1.0))
        vals = [renewal_cdf_clt(20.0, t, *laws) for t in np.linspace(0, 150, 300)]
        assert np.all(np.diff(vals) >= 0)

    def test_degenerate_step(self):
        laws = (ArrivalProcess(Deterministic(1.0), Mode.PURE), Deterministic(3.0))
        assert renewal_cdf_clt(20.0, 6.0, *laws) == 0.0
        assert renewal_cdf_clt(20.0, 7.0, *laws) == 1.0

    def test_negative_time_rejected(self):
        laws = (ArrivalProcess(Gamma(1.0, 2.0)), Exponential(1.0))
        with pytest.raises(ValueError, match="time"):
            renewal_cdf_clt(20.0, -1e-9, *laws)
        with pytest.raises(ValueError, match="time"):
            renewal_cdf_clt(20.0, np.array([0.0, -1.0]), *laws)


class TestNonlinearCdf:
    def test_linear_model_is_identity(self):
        fn = lambda u, t: poisson_cdf_exp_exact(u, t, 1.0, 1.0)
        for t in (5.0, 20.0, 30.0):
            assert nonlinear_cdf(20.0, t, LinearBattery(umax=25.0), fn) == fn(20.0, t)

    def test_uses_shifted_threshold(self):
        bat = NonLinearBattery(25.0, 1.1)
        fn = lambda u, t: poisson_cdf_exp_exact(u, t, 1.0, 1.0)
        up = bat.input_for_level(20.0)
        assert up == pytest.approx(29.34, abs=0.01)
        for t in (20.0, 30.0, 40.0):
            assert nonlinear_cdf(20.0, t, bat, fn) == fn(up, t)

    def test_huge_beta_approaches_linear(self):
        bat = NonLinearBattery(25.0, 1e6)
        fn = lambda u, t: poisson_cdf_exp_exact(u, t, 1.0, 1.0)
        for t in (10.0, 20.0, 30.0):
            assert abs(nonlinear_cdf(20.0, t, bat, fn) - fn(20.0, t)) < 1e-3

    def test_propagates_domain_error(self):
        bat = NonLinearBattery(25.0, 1.1)
        with pytest.raises(ValueError):
            nonlinear_cdf(26.0, 5.0, bat, lambda u, t: 0.0)


class TestPerPacketCdf:
    NL = NonLinearBattery(25.0, 1.1)

    def test_deterministic_packets_need_eleven(self):
        # oracle: replay the paper's written update rule packet by packet
        level, n = 0.0, 0
        while level <= 20.0:
            d = (level - self.NL.a) / self.NL.b
            level = min(level + (1.0 - d * d) * 3.0, self.NL.umax)
            n += 1
        assert n == 11
        pmf = packet_count_pmf(20.0, Deterministic(3.0), self.NL)
        assert pmf[n - 1] == pytest.approx(1.0, abs=1e-12)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_near_deterministic_invgauss_packets_count_like_deterministic(self):
        # IG(3, 1e12) has a standard deviation of 5e-6: its level grid reads
        # the CDF far below 0 and at a huge shape/mean, and must not overflow
        pmf = packet_count_pmf(20.0, InverseGaussian(3.0, 1e12), self.NL)
        np.testing.assert_allclose(pmf, packet_count_pmf(20.0, Deterministic(3.0), self.NL), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("packet", [Exponential(1.0), Gamma(1.0, 2.0)], ids=lambda p: p.config_str())
    def test_count_law_matches_packet_monte_carlo(self, packet):
        # vectorised replay of U <- min(U + eta(U) X, umax) with eta written out
        rng = np.random.default_rng(17)
        paths = 20_000
        a, b = self.NL.a, self.NL.b
        level = np.zeros(paths)
        count = np.zeros(paths, dtype=int)
        active = np.ones(paths, dtype=bool)
        while active.any():
            u = level[active]
            x = packet.sample(rng, u.size)
            level[active] = np.minimum(u + (1.0 - ((u - a) / b) ** 2) * x, self.NL.umax)
            count[active] += 1
            active &= level <= 20.0
        pmf = packet_count_pmf(20.0, packet, self.NL)
        n = np.arange(1, count.max() + 1)
        emp = np.searchsorted(np.sort(count), n, side="right") / paths
        ana = np.cumsum(pmf)[np.minimum(n, pmf.size) - 1]
        assert np.max(np.abs(emp - ana)) <= dkw_band(paths, 0.01)

    def test_huge_beta_matches_linear_exact(self):
        big = NonLinearBattery(25.0, 1e6)
        arrival = ArrivalProcess(Exponential(1.0))
        for t in np.linspace(0.0, 60.0, 61):
            val = per_packet_cdf(20.0, t, arrival, Exponential(1.0), big)
            assert abs(val - poisson_cdf_exp_exact(20.0, t, 1.0, 1.0)) <= 2e-3

    def test_erlang_shape_follows_mode(self):
        # unit packets on an uncapped linear battery: N = 3 at u = 2.5, so tau
        # is the 3rd arrival epoch: Erlang(3) in equilibrium, Erlang(2) in pure mode
        bat, pkt = LinearBattery(), Deterministic(1.0)
        for mode, shape in ((Mode.EQUILIBRIUM, 3), (Mode.PURE, 2)):
            arrival = ArrivalProcess(Exponential(2.0), mode)
            for t in (0.5, 1.0, 3.0):
                val = per_packet_cdf(2.5, t, arrival, pkt, bat)
                assert val == pytest.approx(float(special.gammainc(shape, 2.0 * t)), abs=1e-12)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_poisson_arrivals_match_erlang_epoch_sum(self, mode):
        # oracle: sum_n P(N = n) P(n-th arrival epoch <= t), an Erlang law of
        # shape n in equilibrium and n - 1 in pure mode (a sum of no waits is 0)
        arrival = ArrivalProcess(Exponential(1.0), mode)
        grid = np.linspace(0.0, 60.0, 601)
        laws = [Uniform(0.0, 1.0), Deterministic(3.0), InverseGaussian(1.0, 2.0), Gamma(1.0, 2.0), Exponential(1.0)]
        for packet in laws:
            pmf = packet_count_pmf(20.0, packet, self.NL)
            shape = np.arange(1, pmf.size + 1) - (mode is Mode.PURE)
            erlang = special.gammainc(np.maximum(shape, 1), grid[:, None])
            oracle = np.where(shape == 0, 1.0, erlang) @ pmf
            got = per_packet_cdf(20.0, grid, arrival, packet, self.NL)
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("battery", [LinearBattery(), NL], ids=["linear", "nonlinear"])
    @pytest.mark.parametrize(
        "packet", [Uniform(0.0, 1.0), Gamma(1.0, 2.0), Deterministic(3.0)], ids=lambda p: p.config_str()
    )
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "interarrival",
        [Gamma(2.0, 0.5), InverseGaussian(1.0, 2.0), Uniform(0.0, 2.0), Deterministic(1.0)],
        ids=lambda a: a.config_str(),
    )
    def test_renewal_arrivals_match_normal_epoch_sum(self, interarrival, mode, packet, battery):
        # oracle: sum_n P(N = n) P(T_n <= t), T_n normal of mean m_n = E[A0] + (n - 1) mu_A
        # and variance s_n^2 = V[A0] + (n - 1) sigma_A^2 by scipy, a step at m_n where s_n = 0
        arrival = ArrivalProcess(interarrival, mode)
        grid = np.linspace(0.0, 80.0, 801)[:, None]
        pmf = packet_count_pmf(20.0, packet, battery)
        mean0, var0 = arrival.residual_moments()
        gaps = np.arange(pmf.size)
        m, s = mean0 + gaps * interarrival.mean, np.sqrt(var0 + gaps * interarrival.variance)
        with np.errstate(divide="ignore", invalid="ignore"):
            epochs = np.where(s > 0, stats.norm.cdf((grid - m) / s), grid >= m)
        got = per_packet_cdf(20.0, grid[:, 0], arrival, packet, battery)
        np.testing.assert_allclose(got, epochs @ pmf, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "interarrival, atol",
        [(Exponential(1.0), 0.0), (Gamma(2.0, 0.5), 1e-15), (InverseGaussian(1.0, 2.0), 1e-15)],
        ids=lambda v: v.config_str() if hasattr(v, "config_str") else None,
    )
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_array_t_equals_scalar_t(self, interarrival, atol, mode):
        # the Poisson mixture sums each point's row on its own, bit for bit;
        # the CLT branch sums a [t, n] matrix, whose row sums may round apart
        arrival = ArrivalProcess(interarrival, mode)
        grid = np.linspace(0.0, 60.0, 241)
        got = per_packet_cdf(20.0, grid, arrival, Gamma(1.0, 2.0), self.NL)
        scalars = np.array([per_packet_cdf(20.0, float(t), arrival, Gamma(1.0, 2.0), self.NL) for t in grid])
        if atol == 0.0:
            assert got.tobytes() == scalars.tobytes()
        np.testing.assert_allclose(got, scalars, rtol=0, atol=atol)

    @pytest.mark.parametrize("interarrival", [Exponential(1.0), Gamma(2.0, 0.5)], ids=lambda a: a.config_str())
    def test_negative_time_rejected(self, interarrival):
        arrival = ArrivalProcess(interarrival)
        with pytest.raises(ValueError, match="time"):
            per_packet_cdf(20.0, np.array([1.0, -1e-9]), arrival, Exponential(1.0), self.NL)

    def test_pure_deterministic_arrivals_give_a_step(self):
        # 11 packets, the first at the origin, then 10 gaps of 2
        arrival = ArrivalProcess(Deterministic(2.0), Mode.PURE)
        assert per_packet_cdf(20.0, 19.99, arrival, Deterministic(3.0), self.NL) == 0.0
        assert per_packet_cdf(20.0, 20.0, arrival, Deterministic(3.0), self.NL) == 1.0

    def test_unreachable_threshold_rejected(self):
        with pytest.raises(ValueError):
            packet_count_pmf(25.0, Exponential(1.0), self.NL)

    def test_packets_finer_than_grid_rejected(self):
        # a packet shorter than half a grid cell never leaves the first cell
        with pytest.raises(ValueError, match="too fine"):
            packet_count_pmf(1.0, Deterministic(0.005), LinearBattery())


class TestPacketSumGuards:
    @pytest.mark.parametrize(
        "Xbar, sigmaX",
        [(math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (1.0, math.nan), (1.0, -1.0)],
    )
    def test_bad_packet_moments_rejected(self, Xbar, sigmaX):
        # an infinite sigma makes F all NaN and a negative mean keeps F near 1:
        # unchecked, the series would double its length without end
        with pytest.raises(ValueError, match="packet"):
            poisson_cdf_normal(20.0, 1.0, 1.0, Xbar, sigmaX)

    @pytest.mark.parametrize("Xbar", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_exact_packet_mean_rejected(self, Xbar):
        with pytest.raises(ValueError, match="packet mean"):
            poisson_cdf_exp_exact(20.0, 1.0, 1.0, Xbar)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_bad_rate_rejected(self, lam):
        # unchecked, lam = -1 gave the curve [0, nan, nan] and lam = inf an
        # all-NaN curve
        t = [0.0, 5.0, 30.0]
        with pytest.raises(ValueError, match="arrival rate"):
            poisson_cdf_normal(20.0, t, lam, 1.0, 1.0)
        with pytest.raises(ValueError, match="arrival rate"):
            poisson_cdf_exp_exact(20.0, t, lam, 1.0)


def erlang_tails(y, size):
    """gammainc(n, y) for n < size: the tail sums of the first size Poisson(y) weights."""
    return _tail_sums(_poisson_weights(y, np.arange(size, dtype=float), _log_factorial(size), np.empty(size)))


class TestSeriesSizing:
    """Each Poisson series is sized once, to a length that holds its 1e-12 cut."""

    def test_normal_series_evaluates_phi_once_per_kept_term(self, monkeypatch):
        # packet mean and sd 1e-4 at u = 20: about 2e5 kept terms. Sizing by
        # doubling from u / Xbar + 64 evaluated Phi on 2e5 + 64, then on 4e5 + 128
        u, Xbar, sigmaX = 20.0, 1e-4, 1e-4
        seen = []
        normal_cdf = analytic._normal_cdf
        monkeypatch.setattr(analytic, "_normal_cdf", lambda z: seen.append(np.size(z)) or normal_cdf(z))
        poisson_cdf_normal(u, 10.0, 1.0, Xbar, sigmaX)
        n = np.arange(1.0, 4e5)
        kept = 1 + np.flatnonzero(stats.norm.cdf((u - n * Xbar) / (sigmaX * np.sqrt(n))) < 1e-12)[0]
        assert kept > 2e5
        assert sum(seen) <= kept + 64

    def test_erlang_cut_falls_inside_its_size(self):
        for y in np.geomspace(1e-6, 1e5, 120):
            size = 2 * math.ceil(y) + 65
            tails = erlang_tails(y, size)
            F = _packet_sum_cdf(y, 1.0, None)
            assert F.size < size and tails[F.size] < 1e-12
            assert F[-1] >= 1e-12
            np.testing.assert_array_equal(F, tails[: F.size])

    @pytest.mark.parametrize("sigmaX", [None, 0.0, 1.0], ids=["erlang", "step", "normal"])
    def test_cut_raises_when_no_term_is_small(self, monkeypatch, sigmaX):
        # an empty series would read 1 at every t, a silently wrong curve
        monkeypatch.setattr(analytic, "_SERIES_TOL", 0.0)
        with pytest.raises(IndexError):
            _packet_sum_cdf(20.0, 1.0, sigmaX)

    def test_step_series_holds_a_sum_that_rounds_to_u(self):
        # 17 / 0.34 rounds to 49.999..., but 50 * 0.34 rounds to 17.0 <= u, so
        # 51 packets are needed and the series keeps 51 terms, n = 0, ..., 50
        assert _packet_sum_cdf(17.0, 0.34, 0.0).size == 51
        t = np.linspace(0.0, 100.0, 101)
        np.testing.assert_allclose(poisson_cdf_normal(17.0, t, 1.0, 0.34, 0.0), special.gammainc(51, t), rtol=0, atol=1e-12)

    def test_step_series_is_the_indicator_of_the_packet_sum(self):
        # at sigmaX = 0 the series is [n Xbar <= u] over floor(y) + 3 terms,
        # y = u / Xbar, cut at its first zero, bit for bit; the sweep holds u
        # within ulps of a multiple of Xbar, where (floor(y) + 1) Xbar may round to u
        rng = np.random.default_rng(20)
        cases = [(17.0, 0.34)]
        for Xbar, m in zip(rng.uniform(0.01, 10.0, 300), rng.integers(1, 2000, 300)):
            u = m * Xbar
            cases += [(float(v), float(Xbar)) for v in (u, np.nextafter(u, 0.0), np.nextafter(u, np.inf))]
        cases += zip(rng.uniform(0.01, 500.0, 300).tolist(), rng.uniform(0.01, 10.0, 300).tolist())
        for u, Xbar in cases:
            step = (np.arange(math.floor(u / Xbar) + 3) * Xbar <= u) * 1.0
            np.testing.assert_array_equal(_packet_sum_cdf(u, Xbar, 0.0), step[: np.flatnonzero(step == 0.0)[0]])


class TestPoissonMixtureOracle:
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("formula", ["normal", "exact"])
    def test_matches_poisson_pmf_weighted_sum(self, formula, mode):
        # 301 points, more than two blocks of the mixture, with lam t up to 400
        # at u = 150; the oracle sums 600 untruncated terms of scipy's pmf
        u, lam = 150.0, 1.6
        grid = np.linspace(0.0, 250.0, 301)
        n = np.arange(1.0, 601.0)
        if formula == "exact":
            F = stats.gamma.cdf(u, n)
            fn = lambda t: poisson_cdf_exp_exact(u, t, lam, 1.0, mode=mode)
        else:
            F = stats.norm.cdf(u, loc=n, scale=np.sqrt(n))
            fn = lambda t: poisson_cdf_normal(u, t, lam, 1.0, 1.0, mode=mode)
        if mode is Mode.EQUILIBRIUM:
            F = np.concatenate(([1.0], F[:-1]))  # F_0 = 1: no packet yet
        weights = stats.poisson.pmf(np.arange(F.size), lam * grid[:, None])
        oracle = 1.0 - (weights * F).sum(axis=1)
        curve = fn(grid)
        assert curve[0] == 0.0
        np.testing.assert_allclose(curve, oracle, rtol=0.0, atol=1e-12)
        # a point's value does not depend on the block it falls in
        np.testing.assert_array_equal(curve, [fn(float(t)) for t in grid])

    @pytest.mark.parametrize("epochs", ["poisson", "normal"])
    def test_buffer_does_not_grow_with_terms_times_block(self, epochs):
        if epochs == "poisson":
            # packet mean 1e-4 at u = 20: about 2e5 terms, so a block of 128 grid
            # points would hold 200 MB; the mixture keeps to a fixed cell budget
            curve = lambda: poisson_cdf_normal(20.0, np.linspace(0.0, 40.0, 201), 1.0, 1e-4, 1e-4)
        else:
            # 1170 packet counts on 4001 points under gamma arrivals: one dense
            # [t, n] matrix of normal epoch CDFs would hold 37 MB. The count
            # law is cached first, so only the mixture is traced
            arrival, laws = ArrivalProcess(Gamma(2.0, 0.5)), (Uniform(0.0, 0.04), LinearBattery())
            packet_count_pmf(20.0, *laws)
            curve = lambda: per_packet_cdf(20.0, np.linspace(0.0, 40.0, 4001), arrival, *laws)
        tracemalloc.start()
        try:
            curve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestPoissonWindow:
    """Each point of a Poisson mixture sums only the counts of its own window."""

    def test_window_drops_at_most_2e_18_of_the_mass(self):
        x = np.r_[0.0, np.geomspace(1e-6, 1e5, 200)]
        lo, hi = _poisson_window(x, 1 << 20)
        assert np.all((lo <= x) & (x < hi) & (hi < 1 << 20))
        np.testing.assert_array_equal([lo % 32, hi % 32], 0.0)
        dropped = stats.poisson.cdf(lo - 1.0, x) + stats.poisson.sf(hi - 1.0, x)
        assert np.all(dropped <= 2e-18)

    def test_window_is_capped_at_the_series_and_empty_at_infinity(self):
        lo, hi = _poisson_window(np.array([0.0, 50.0, 1e4, np.inf]), 100)
        np.testing.assert_array_equal(lo, [0.0, 0.0, 100.0, 100.0])
        np.testing.assert_array_equal(hi, [32.0, 100.0, 100.0, 100.0])

    @pytest.mark.parametrize("x", [0.0, 40.0])
    def test_window_weights_are_the_full_weights_at_its_counts(self, x):
        # the exact corner at n = 0 is set only where the counts start at 0
        n = np.arange(96.0)
        full = _poisson_weights(x, n, _log_factorial(96), np.empty(96))
        for lo in (0, 32):
            part = _poisson_weights(x, n[lo:], _log_factorial(96)[lo:], np.empty(96 - lo))
            assert part.tobytes() == full[lo:].tobytes()

    @pytest.mark.parametrize("formula", ["normal", "exact"])
    @pytest.mark.parametrize("u", [0.3, 5.0, 20.0, 150.0, 1000.0])
    def test_matches_the_unwindowed_sum(self, u, formula):
        # the full sum of every term of the same series; the window drops at
        # most 2e-18, so the two differ by the rounding of their sums alone
        sigmaX = 1.0 if formula == "normal" else None
        fn = poisson_cdf_normal if formula == "normal" else poisson_cdf_exp_exact
        for lam in (0.3, 1.0, 1.7):
            t = np.linspace(0.0, 2500.0 / lam, 401)
            for mode in Mode:
                F = _packet_sum_cdf(u, 1.0, sigmaX)[1 if mode is Mode.PURE else 0 :]
                n = np.arange(F.size, dtype=float)
                w = _poisson_weights(lam * t[:, None], n, _log_factorial(n.size), np.empty((t.size, n.size)))
                full = np.clip(1.0 - (w * F).sum(axis=1), 0.0, 1.0)
                got = fn(u, t, lam, 1.0, *([sigmaX] if sigmaX else []), mode=mode)
                np.testing.assert_allclose(got, full, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_reordered_time_gives_the_reordered_curve(self, order):
        grid = np.linspace(0.0, 250.0, 301)
        perm = np.arange(grid.size)[::-1] if order == "reversed" else np.random.default_rng(5).permutation(grid.size)
        for fn in (
            lambda t: poisson_cdf_exp_exact(150.0, t, 1.6, 1.0),
            lambda t: poisson_cdf_normal(150.0, t, 1.6, 1.0, 1.0, mode=Mode.PURE),
        ):
            curve = fn(grid)
            assert fn(grid[perm]).tobytes() == curve[perm].tobytes()
            assert fn(grid[perm].reshape(7, 43)).tobytes() == curve[perm].tobytes()

    def test_empty_time_gives_an_empty_curve(self):
        laws = (ArrivalProcess(Exponential(1.0)), Exponential(1.0), LinearBattery())
        for t in (np.empty(0), np.empty((0, 3)), []):
            got = poisson_cdf_exp_exact(20.0, t, 1.0, 1.0)
            assert got.shape == np.shape(t) and got.dtype == float
            assert per_packet_cdf(20.0, t, *laws).shape == np.shape(t)

    def test_series_of_no_terms_crosses_at_once(self):
        # the packet at the origin always lifts the level above u, so the pure
        # mode series is empty and P = 1 at every t, 0 and inf among them
        t = np.array([0.0, 5.0, np.inf])
        np.testing.assert_array_equal(poisson_cdf_exp_exact(1e-300, t, 1.0, 1.0, mode=Mode.PURE), 1.0)
        arrival = ArrivalProcess(Exponential(1.0), Mode.PURE)
        np.testing.assert_array_equal(per_packet_cdf(2.0, t, arrival, Deterministic(3.0), LinearBattery()), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, [1.0, np.nan, np.inf]], ids=["scalar", "array"])
    def test_nan_time_rejected(self, bad):
        arrival = ArrivalProcess(Exponential(1.0))
        for fn in (
            lambda t: poisson_cdf_exp_exact(20.0, t, 1.0, 1.0),
            lambda t: poisson_cdf_normal(20.0, t, 1.0, 1.0, 1.0),
            lambda t: per_packet_cdf(20.0, t, arrival, Exponential(1.0), LinearBattery()),
            lambda t: renewal_cdf_clt(20.0, t, *EXP_EXP),
        ):
            with pytest.raises(ValueError, match="time"):
                fn(bad)

    def test_infinite_time_gives_one(self):
        # RuntimeWarnings fail the suite, so these also check that none escapes
        t = np.array([1.0, np.inf])
        for mode in Mode:
            laws = (ArrivalProcess(Exponential(1.0), mode), Exponential(1.0), LinearBattery())
            assert poisson_cdf_exp_exact(20.0, t, 1.0, 1.0, mode=mode)[1] == 1.0
            assert poisson_cdf_normal(20.0, t, 1.0, 1.0, 1.0, mode=mode)[1] == 1.0
            assert per_packet_cdf(20.0, t, *laws)[1] == 1.0
        # lam t overflows to inf
        assert poisson_cdf_exp_exact(20.0, 1e300, 1e10, 1.0) == 1.0
        assert poisson_cdf_normal(20.0, 1e300, 1e10, 1.0, 1.0) == 1.0


class TestCdfRangeProperties:
    @pytest.mark.parametrize("formula", ["normal", "exact", "clt"])
    def test_array_time_matches_scalar_calls(self, formula):
        fn = {
            "normal": lambda t: poisson_cdf_normal(30.0, t, 1.5, 0.7, 0.4),
            "exact": lambda t: poisson_cdf_exp_exact(30.0, t, 1.5, 0.7),
            "clt": lambda t: renewal_cdf_clt(30.0, t, *EXP_EXP),
        }[formula]
        grid = np.linspace(0.0, 80.0, 161)
        curve = fn(grid)
        assert curve.shape == grid.shape
        np.testing.assert_array_equal(curve, [fn(float(t)) for t in grid])
        np.testing.assert_array_equal(fn(grid.reshape(7, 23)), curve.reshape(7, 23))
        assert isinstance(fn(3.0), float)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        u=st.floats(0.1, 200.0),
        lam=st.floats(0.1, 5.0),
        Xbar=st.floats(0.2, 5.0),
        # zero spreads often, for the step forms of both packet and CLT laws
        sigmaX=st.just(0.0) | st.floats(0.0, 3.0),
        sigmaA2=st.just(0.0) | st.floats(0.0, 4.0),
        times=st.lists(st.floats(0.0, 500.0), min_size=2, max_size=40),
    )
    def test_monotone_in_time_and_in_unit_interval(self, u, lam, Xbar, sigmaX, sigmaA2, times):
        t = np.sort(times)
        arrival = ArrivalProcess(law_with_moments(1.0 / lam, sigmaA2))
        packet = law_with_moments(Xbar, sigmaX**2)
        for vals in (
            poisson_cdf_normal(u, t, lam, Xbar, sigmaX),
            poisson_cdf_exp_exact(u, t, lam, Xbar),
            renewal_cdf_clt(u, t, arrival, packet),
        ):
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            # the series' own error bound is 1e-12
            assert np.all(np.diff(vals) >= -1e-12)

    def test_all_formulas_in_unit_interval(self):
        for t in np.linspace(0.0, 100.0, 101):
            for v in (
                poisson_cdf_normal(20.0, t, 1.0, 1.0, 1.0),
                poisson_cdf_exp_exact(20.0, t, 1.0, 1.0),
                renewal_cdf_clt(20.0, t, *EXP_EXP),
            ):
                assert 0.0 <= v <= 1.0

    def test_zero_at_origin(self):
        assert poisson_cdf_normal(20.0, 0.0, 1.0, 1.0, 1.0) == 0.0
        assert poisson_cdf_exp_exact(20.0, 0.0, 1.0, 1.0) == 0.0
        assert renewal_cdf_clt(20.0, 0.0, *EXP_EXP) < 1e-3


# unit roundoff of a double
UNIT_ROUNDOFF = np.finfo(float).eps / 2


class TestSpecialFunctions:
    """The normal CDF, log n! and the Erlang CDF that the curves read, against mpmath and scipy."""

    def test_normal_cdf(self):
        z = np.linspace(-38.0, 9.0, 941)
        with mp.workdps(40):
            ref = np.array([float(mp.ncdf(v)) for v in z])
        got = _normal_cdf(z)
        normal = ref >= np.finfo(float).tiny  # below, Phi is subnormal: z < -37.5
        # -z / sqrt 2 is rounded, and d log Phi / dz is about |z| at z << 0, so
        # Phi carries a relative error of about z^2 times the unit roundoff
        rtol = 1e-15 + 4.0 * z[normal] ** 2 * UNIT_ROUNDOFF
        for other in (ref, special.ndtr(z)):
            assert np.all(np.abs(got[normal] / other[normal] - 1.0) <= rtol)
        np.testing.assert_allclose(got[~normal], ref[~normal], rtol=0.0, atol=1e-310)
        np.testing.assert_array_equal(_normal_cdf(np.array([-np.inf, np.inf, np.nan])), [0.0, 1.0, np.nan])

    @pytest.mark.parametrize("no_spread", [0.0, np.nan])
    def test_normal_law_without_spread_is_a_step(self, no_spread):
        # columns 0 and 2 have no spread and step at their mean; column 1 is Phi
        x = np.array([[-1.0], [0.5], [1.0], [1.25], [2.0]])
        mean = np.array([0.5, 1.0, 1.25])
        got = _normal_law(x, mean, np.array([no_spread, 0.5, no_spread]), np.empty((5, 3)))
        np.testing.assert_array_equal(got[:, [0, 2]], x >= mean[[0, 2]])
        np.testing.assert_array_equal(got[:, 1], _normal_cdf((x[:, 0] - 1.0) / 0.5))
        # a scalar sd of no spread steps every column
        np.testing.assert_array_equal(_normal_law(x, mean, no_spread, np.empty((5, 3))), x >= mean)

    def test_log_factorial(self):
        got = _log_factorial(100_001)
        assert got.shape == (100_001,) and got[0] == got[1] == 0.0
        n = np.arange(100_001.0)
        np.testing.assert_allclose(got, special.gammaln(n + 1.0), rtol=8 * UNIT_ROUNDOFF, atol=0.0)
        picks = np.r_[2:300, 1000:1010, 99_990:100_001]
        with mp.workdps(40):
            ref = np.array([float(mp.loggamma(int(k) + 1)) for k in picks])
        np.testing.assert_allclose(got[picks], ref, rtol=8 * UNIT_ROUNDOFF, atol=0.0)

    @pytest.mark.parametrize("y", [0.5, 20.0, 150.0, 1000.0])
    def test_erlang_cdf(self, y):
        size = int(2 * y) + 100
        F = erlang_tails(y, size)
        assert F[0] == 1.0 and F[-1] < 1e-12
        assert np.all(np.diff(F) <= 0.0)
        n = np.flatnonzero(F >= 1e-12)
        with mp.workdps(40):
            ref = np.array([1.0] + [float(mp.gammainc(int(k), 0, y, regularized=True)) for k in n[1:]])
        # each log weight k log y - log k! - y sums terms up to about
        # L = n log y + log n! at the last n, each rounded, so a weight and a
        # sum of weights are off by about 3 L unit roundoffs, relative
        last = n[-1]
        rtol = 1e-14 + 3.0 * (last * abs(math.log(y)) + math.lgamma(last + 1.0)) * UNIT_ROUNDOFF
        for other in (ref, special.gammainc(n, y)):
            assert np.all(np.abs(F[n] / other - 1.0) <= rtol)
