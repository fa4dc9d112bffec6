import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from rechargetime.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    InverseGaussian,
    Uniform,
)
from rechargetime.renewal import ArrivalProcess, Mode
from rechargetime.stats import CdfCurve, dkw_band, ecdf, ks_distance


def residual_cdf_quadrature(spec, t):
    """Independent oracle: integrate (1 - F_A)/mu_A numerically."""
    return quad(lambda s: (1.0 - spec.cdf(s)) / spec.mean, 0.0, t, limit=300)[0]


def arrival_epochs(proc, rng, rows, n):
    """[rows, n] epochs drawn as arrays: the first wait plus a cumulative sum of inter-arrivals."""
    first = proc.residual_sample(rng, rows)
    gaps = proc.interarrival.sample(rng, (rows, n - 1))
    return first[:, None] + np.hstack([np.zeros((rows, 1)), np.cumsum(gaps, axis=1)])


class TestResidualMoments:
    def test_exponential(self):
        m, v = ArrivalProcess(Exponential(1.0)).residual_moments()
        assert m == pytest.approx(1.0)
        assert v == pytest.approx(6.0 / 3.0 - 1.0)  # third raw moment 6

    def test_deterministic_unit(self):
        m, v = ArrivalProcess(Deterministic(1.0)).residual_moments()
        assert m == pytest.approx(0.5)
        assert v == pytest.approx(1.0 / 3.0 - 0.25)  # uniform on [0,1]

    def test_uniform_cross_checked_by_quadrature(self):
        spec = Uniform(0.0, 1.0)
        m, v = ArrivalProcess(spec).residual_moments()
        # residual density is 2(1 - t) on [0,1]
        m_num = quad(lambda t: t * 2.0 * (1.0 - t), 0, 1)[0]
        v_num = quad(lambda t: t**2 * 2.0 * (1.0 - t), 0, 1)[0] - m_num**2
        assert m == pytest.approx(m_num)
        assert m == pytest.approx(1.0 / 3.0)
        assert v == pytest.approx(v_num)

    def test_pure_mode_is_zero(self):
        proc = ArrivalProcess(Gamma(1.5, 2.0), Mode.PURE)
        assert proc.residual_moments() == (0.0, 0.0)
        assert proc.residual_sample(np.random.default_rng(0)) == 0.0


class TestResidualSampling:
    def test_exponential_memoryless(self):
        proc = ArrivalProcess(Exponential(0.5))
        rng = np.random.default_rng(1)
        draws = proc.residual_sample(rng, 10**5)
        grid = np.linspace(1e-9, draws.max() * 1.01, 400)
        emp = ecdf(draws, grid)
        ana = CdfCurve(tuple(grid), tuple(Exponential(0.5).cdf(grid)))
        assert ks_distance(emp, ana) < dkw_band(10**5, 0.01)

    def test_deterministic_gives_uniform(self):
        proc = ArrivalProcess(Deterministic(1.0))
        rng = np.random.default_rng(2)
        draws = proc.residual_sample(rng, 10**5)
        assert np.all((draws >= 0) & (draws < 1))
        grid = np.linspace(1e-6, 0.9999, 400)
        emp = ecdf(draws, grid)
        ana = CdfCurve(tuple(grid), tuple(grid))
        assert ks_distance(emp, ana) < dkw_band(10**5, 0.01)

    @pytest.mark.parametrize(
        "spec",
        [
            Gamma(1.5, 2.0),
            InverseGaussian(1.0, 2.0),
            Uniform(0.5, 2.0),
            Uniform(0.0, 1.0),
            Gamma(0.5, 2.0),
            InverseGaussian(2.0, 0.8),
        ],
        ids=lambda s: s.config_str(),
    )
    def test_numeric_path_matches_quadrature_cdf(self, spec):
        proc = ArrivalProcess(spec)
        rng = np.random.default_rng(3)
        n = 10**5
        draws = proc.residual_sample(rng, n)
        grid = np.linspace(1e-6, float(draws.max()) * 1.01, 200)
        emp = np.asarray(ecdf(draws, grid).values)
        oracle = np.array([residual_cdf_quadrature(spec, t) for t in grid])
        assert np.max(np.abs(emp - oracle)) < dkw_band(n, 0.01)

    @pytest.mark.parametrize(
        "spec",
        [Gamma(1.5, 2.0), InverseGaussian(1.0, 2.0), Uniform(0.5, 2.0), Exponential(1.0)],
        ids=lambda s: s.config_str(),
    )
    def test_million_draw_mean(self, spec):
        proc = ArrivalProcess(spec)
        rng = np.random.default_rng(4)
        n = 10**6
        draws = proc.residual_sample(rng, n)
        mean, var = proc.residual_moments()
        assert abs(draws.mean() - mean) < 4.0 * np.sqrt(var / n)
        assert mean == pytest.approx((spec.mean**2 + spec.variance) / (2.0 * spec.mean))

    @pytest.mark.parametrize(
        "spec",
        [Exponential(0.5), Gamma(1.5, 2.0), InverseGaussian(1.0, 2.0), Uniform(0.5, 2.0), Deterministic(1.0)],
        ids=lambda s: s.config_str(),
    )
    def test_scalar_draw_is_first_array_draw(self, spec):
        # the DKW checks above cover array draws only; a scalar draw must be
        # the first value of an array draw, so both read the stream the same way
        proc = ArrivalProcess(spec)
        for seed in range(5):
            one = proc.residual_sample(np.random.default_rng(seed))
            assert type(one) is float
            assert one == proc.residual_sample(np.random.default_rng(seed), 1)[0]


class TestArrivalStream:
    """The law of the epochs, drawn as arrays as the engine draws them."""

    def test_pure_deterministic(self):
        proc = ArrivalProcess(Deterministic(1.0), Mode.PURE)
        epochs = arrival_epochs(proc, np.random.default_rng(0), 1, 5)
        assert epochs.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0]]

    def test_equilibrium_deterministic(self):
        proc = ArrivalProcess(Deterministic(1.0))
        e = arrival_epochs(proc, np.random.default_rng(0), 20, 4)
        a0 = e[:, :1]
        assert np.all((0.0 <= a0) & (a0 < 1.0))
        assert e == pytest.approx(a0 + [0, 1, 2, 3])

    def test_strictly_increasing(self):
        proc = ArrivalProcess(Gamma(0.5, 2.0))
        e = arrival_epochs(proc, np.random.default_rng(5), 1, 200)
        assert np.all(np.diff(e) > 0)

    def test_poisson_counts_chi_square(self):
        # count of equilibrium Exp(1) arrivals in [0, t] is Poisson(t)
        proc = ArrivalProcess(Exponential(1.0))
        t_win = 3.0
        n_windows = 10**5
        epochs = arrival_epochs(proc, np.random.default_rng(6), n_windows, 32)
        assert np.all(epochs[:, -1] > t_win)
        counts = (epochs <= t_win).sum(axis=1)
        kmax = counts.max()
        observed = np.bincount(counts, minlength=kmax + 1).astype(float)
        expected = stats.poisson.pmf(np.arange(kmax + 1), t_win) * n_windows
        # merge the tail so every expected cell is >= 5
        cut = np.searchsorted(np.cumsum(expected[::-1]), 5.0)
        cut = len(expected) - cut - 1
        obs = np.append(observed[:cut], observed[cut:].sum())
        exp = np.append(expected[:cut], expected[cut:].sum())
        exp *= obs.sum() / exp.sum()
        stat, p = stats.chisquare(obs, exp)
        assert p > 1e-4

    def test_equilibrium_shift_invariance(self):
        # first epoch past t0, minus t0, follows the residual law again
        spec = Gamma(1.5, 2.0)
        proc = ArrivalProcess(spec)
        t0 = 25.0
        n = 4000
        epochs = arrival_epochs(proc, np.random.default_rng(7), n, 64)
        past = epochs > t0
        assert past[:, -1].all()
        waits = epochs[np.arange(n), past.argmax(axis=1)] - t0
        grid = np.linspace(1e-6, waits.max() * 1.01, 150)
        emp = np.asarray(ecdf(waits, grid).values)
        oracle = np.array([residual_cdf_quadrature(spec, t) for t in grid])
        assert np.max(np.abs(emp - oracle)) < dkw_band(n, 0.01)
