import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rechargetime.battery import LinearBattery, NonLinearBattery, parse_battery

NL = NonLinearBattery(umax=25.0, beta=1.1)


class TestEfficiency:
    def test_peak_at_half_capacity(self):
        assert NL.efficiency(12.5) == pytest.approx(1.0)

    def test_empty_battery(self):
        assert NL.efficiency(0.0) == pytest.approx(1.0 - 1.0 / 1.1**2)

    def test_linear_is_unity(self):
        bat = LinearBattery(umax=25.0)
        for u in (0.0, 5.0, 25.0):
            assert bat.efficiency(u) == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            NL.efficiency(-0.1)
        with pytest.raises(ValueError):
            NL.efficiency(25.1)

    def test_positive_on_full_range(self):
        for u in np.linspace(0.0, 25.0, 200):
            assert NL.efficiency(u) > 0.0

    def test_array_matches_scalar_calls(self):
        levels = np.linspace(0.0, 25.0, 7)
        for bat in (NL, LinearBattery(umax=25.0)):
            np.testing.assert_array_equal(bat.efficiency(levels), [bat.efficiency(float(u)) for u in levels])

    @pytest.mark.parametrize("bad", [-0.1, 25.1, np.nan])
    def test_domain_error_anywhere_in_array(self, bad):
        with pytest.raises(ValueError, match="outside"):
            NL.efficiency(np.array([0.0, 12.5, bad, 25.0]))


class TestInputForLevel:
    def test_linear_identity(self):
        assert LinearBattery(umax=25.0).input_for_level(20.0) == 20.0

    def test_shifted_threshold_value(self):
        up = NL.input_for_level(20.0)
        assert up == pytest.approx(13.75 * math.atanh(1.0 / 1.1) + 13.75 * math.atanh(7.5 / 13.75))
        assert up == pytest.approx(29.34, abs=0.01)

    def test_half_capacity_maps_to_offset(self):
        # the offset C = b artanh(1/beta) of the paper's tanh law
        c = 13.75 * math.atanh(1.0 / 1.1)
        assert c == pytest.approx(20.93, abs=0.01)
        assert NL.input_for_level(12.5) == pytest.approx(c)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            NL.input_for_level(0.0)
        with pytest.raises(ValueError):
            NL.input_for_level(26.0)
        # level at or above the tanh asymptote a + b is unreachable
        wide = NonLinearBattery(umax=100.0, beta=1.2)
        with pytest.raises(ValueError):
            wide.input_for_level(wide.a + wide.b)
        # a level so small that the raw input it takes rounds to 0
        with pytest.raises(ValueError, match="not > 0"):
            NonLinearBattery(umax=25.0, beta=2.0).input_for_level(5e-324)

    def test_strictly_increasing(self):
        levels = np.linspace(0.1, 24.9, 100)
        vals = [NL.input_for_level(u) for u in levels]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("beta, rel", [(1.0001, 1e-12), *[(beta, 1e-13) for beta in (1.01, 1.1, 1.5, 2.0, 4.0, 1e6)]])
    def test_matches_the_paper_law_in_high_precision(self, beta, rel):
        # the paper's C + b artanh((u - a)/b) at 400 digits, which outlast its
        # cancellation of about 300 digits at u = 5e-300
        bat = NonLinearBattery(umax=25.0, beta=beta)
        levels = [5e-300, 1e-100, 1e-14, 1e-6, *np.linspace(1e-3, 0.999999, 200) * bat.umax]
        with mp.workdps(400):
            a, b = mp.mpf(bat.a), mp.mpf(bat.b)
            exact = [b * (mp.atanh(a / b) + mp.atanh((mp.mpf(u) - a) / b)) for u in levels]
            wrong = [u for u, x in zip(levels, exact) if not abs(bat.input_for_level(u) / x - 1) <= rel]
        assert wrong == []


def plane(packets):
    """A plane for ``path`` to write the path of a [rows, k] block into, as [k, rows]."""
    return np.empty(packets.shape[::-1])


def step(U, x):
    """One packet of NL's per-packet rule at levels U: a one-packet block through the kernel's ``path``."""
    U, x = np.broadcast_arrays(np.asarray(U, dtype=float), np.asarray(x, dtype=float))
    x = x.reshape(-1, 1)
    return NL.path(U.ravel(), x, NL.umax, plane(x))[0].reshape(U.shape)[()]


class TestStepUpdate:
    def test_nonlinear_empty(self):
        assert step(0.0, 1.0) == pytest.approx(1.0 - 1.0 / 1.1**2)

    def test_saturation_clip(self):
        assert step(24.9, 100.0) == 25.0

    def test_array_matches_scalar_calls(self):
        levels = np.array([0.0, 5.0, 12.5, 24.9])
        packets = np.array([1.0, 0.0, 3.0, 100.0])
        expected = [step(float(u), float(x)) for u, x in zip(levels, packets)]
        np.testing.assert_array_equal(step(levels, packets), expected)

    def test_nonlinear_step_is_the_written_rule_bit_for_bit(self):
        # the engine steps packet columns with this unchecked update
        rng = np.random.default_rng(4)
        levels, packets = rng.uniform(0.0, 25.0, 10_000), rng.exponential(2.0, 10_000)
        written = np.minimum(levels + (1.0 - ((levels - NL.a) / NL.b) ** 2) * packets, NL.umax)
        assert step(levels, packets).tobytes() == written.tobytes()


class TestPath:
    """``path``, the one call the engine's kernel makes per drawn [rows, k] block."""

    @staticmethod
    def block(seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 20.0, 256), rng.exponential(0.5, (256, 64))

    @pytest.mark.parametrize("shape", [(256, 64), (1, 64), (256, 1)], ids=["256x64", "1x64", "256x1"])
    def test_linear_path_is_a_running_sum_bit_for_bit(self, shape):
        # the path is written as [k, rows], a packet column into a plane row
        # at a time; one row or one packet is the edge of that layout
        level, packets = self.block(5)
        rows, k = shape
        level, packets = level[:rows], packets[:rows, :k]
        expected = plane(packets)
        for r, row in enumerate(packets):
            total = 0.0
            for j, x in enumerate(row):
                total += x
                expected[j, r] = total + level[r]
        got = LinearBattery().path(level, packets.copy(), 20.0, plane(packets))
        assert got.tobytes() == expected.tobytes()

    def test_nonlinear_path_is_the_step_per_packet_bit_for_bit(self):
        level, packets = self.block(6)
        expected = plane(packets)
        for r, row in enumerate(packets):
            u = level[r]
            for j, x in enumerate(row):
                expected[j, r] = u = step(u, x)
        got = NL.path(level, packets, NL.umax, plane(packets))  # no level goes above umax, so no early stop
        assert got.shape == packets.shape[::-1]
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("top", [5.0, 15.0, 22.0, NL.umax])
    def test_nonlinear_path_stops_after_the_first_column_with_every_row_above_top(self, top):
        level, packets = self.block(7)
        full = NL.path(level, packets, NL.umax, plane(packets))
        above = np.flatnonzero(full.min(axis=1) > top)
        columns = above[0] + 1 if above.size else 64
        got = NL.path(level, packets, top, plane(packets))
        assert got.shape == (columns, 256)
        np.testing.assert_array_equal(got, full[:columns])

    def test_nonlinear_path_writes_only_the_plane_rows_it_steps(self):
        # the path stops at packet j, and the plane's rows past j keep what
        # the caller left there: no packet column past j is read or copied
        level, packets = self.block(7)
        out = np.full((64, 256), -7.0)
        got = NL.path(level, packets, 15.0, out)
        j = len(got) - 1
        assert j < 63 and np.shares_memory(got, out)
        assert (got >= 0.0).all()
        assert (out[j + 1 :] == -7.0).all()

    @pytest.mark.parametrize("rows", [256, 1])
    @pytest.mark.parametrize("top", [15.0, NL.umax])
    def test_nonlinear_path_leaves_the_callers_arrays_as_they_were(self, top, rows):
        # the path is stepped in the caller's plane, with and without an
        # early stop; a one-row block's packet columns are one contiguous row
        # already, and are read all the same
        level, packets = self.block(8)
        level, packets = level[:rows], packets[:rows]
        before = level.tobytes(), packets.tobytes()
        got = NL.path(level, packets, top, plane(packets))
        assert (len(got) < 64) == (top < NL.umax)
        assert (level.tobytes(), packets.tobytes()) == before

    @pytest.mark.parametrize("rows", [1024, 1])
    @pytest.mark.parametrize("battery", [LinearBattery(), NL], ids=["linear", "nonlinear"])
    def test_path_into_a_nan_plane_equals_a_zeroed_plane(self, battery, rows):
        # the engine's kernel steps every block into a plane it keeps, which
        # holds what the last block left there; the path written into a plane
        # of NaN is the one written into a zeroed plane bit for bit, a view of
        # ``out``, and the caller's packets and level are left as they were
        rng = np.random.default_rng(12)
        level, packets = rng.uniform(0.0, 20.0, rows), rng.exponential(0.5, (rows, 64))
        before = level.tobytes(), packets.tobytes()
        zeroed = battery.path(level, packets, 15.0, np.zeros((64, rows)))
        out = np.full((64, rows), np.nan)
        got = battery.path(level, packets, 15.0, out)
        assert np.shares_memory(got, out)
        assert got.shape == zeroed.shape and got.tobytes() == zeroed.tobytes()
        assert (level.tobytes(), packets.tobytes()) == before

    @pytest.mark.parametrize("seed", [9, 10, 11])
    @pytest.mark.parametrize("battery", [LinearBattery(), NL], ids=["linear", "nonlinear"])
    def test_no_row_falls(self, battery, seed):
        # the engine's kernel counts a row's path values at or below a level
        # to find the packet that lifts it above, which needs this contract
        rng = np.random.default_rng(seed)
        level = rng.uniform(0.0, NL.umax, 256)
        level[:2] = 0.0, NL.umax
        packets = rng.exponential(2.0, (256, 64))
        packets[rng.random((256, 64)) < 0.1] = 0.0
        packets[rng.random((256, 64)) < 0.05] = 1e3  # lifts a non-linear level to umax in one packet
        assert (packets == 0.0).any()
        path = battery.path(level, packets.copy(), NL.umax, plane(packets))  # no level goes above umax, so no early stop
        assert path.shape == packets.shape[::-1]
        assert (np.diff(path, axis=0) >= 0.0).all()
        assert (path[0] >= level).all()
        if battery is NL:
            assert (path == NL.umax).any(axis=0).mean() > 0.9


class TestTransformInvariants:
    @pytest.mark.parametrize("umax,beta", [(25.0, 1.1), (10.0, 1.5), (50.0, 2.0)])
    def test_ode_consistency_finite_difference(self, umax, beta):
        # d/du input_for_level == 1 / efficiency
        bat = NonLinearBattery(umax, beta)
        h = 1e-6
        for u in np.linspace(0.05, 0.95 * umax, 60):
            deriv = (bat.input_for_level(u + h) - bat.input_for_level(u - h)) / (2 * h)
            assert deriv * bat.efficiency(u) == pytest.approx(1.0, rel=1e-6)

    def test_huge_beta_is_linear_limit(self):
        bat = NonLinearBattery(umax=25.0, beta=1e6)
        for u in np.linspace(0.0, 25.0, 200)[1:]:
            assert abs(bat.input_for_level(u) - u) < 1e-4

    def test_step_update_converges_to_continuous_transform(self):
        target = 15.0
        x_total = NL.input_for_level(target)
        errors = []
        for n in (1, 10, 100, 1000):
            u = 0.0
            for _ in range(n):
                u = step(u, x_total / n)
            errors.append(abs(u - target))
        # forward-Euler order: error shrinks roughly like 1/n
        assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < errors[0] / 50


def test_validation():
    with pytest.raises(ValueError):
        NonLinearBattery(umax=25.0, beta=1.0)
    with pytest.raises(ValueError):
        NonLinearBattery(umax=0.0, beta=1.1)
    with pytest.raises(ValueError):
        LinearBattery(umax=-1.0)
    # beta * umax/2 rounds to umax/2, so eta(0) = 0, or overflows to inf
    with pytest.raises(ValueError, match="beta must be"):
        NonLinearBattery(umax=1e-320, beta=1.00001)
    with pytest.raises(ValueError, match="beta must be"):
        NonLinearBattery(umax=25.0, beta=1e308)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "battery, field",
    [(LinearBattery(umax=25.0), "umax"), (NL, "umax"), (NL, "beta")],
    ids=["linear-umax", "nonlinear-umax", "nonlinear-beta"],
)
def test_non_finite_parameter_rejected(battery, field, bad):
    # write LinearBattery() for an uncapped battery; umax = inf is refused
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(battery, **{field: bad})


def test_parse_battery():
    assert parse_battery("linear") == LinearBattery()
    assert parse_battery("linear umax=25") == LinearBattery(umax=25.0)
    assert parse_battery("nonlinear umax=25 beta=1.1") == NonLinearBattery(25.0, 1.1)
    with pytest.raises(ValueError):
        parse_battery("nonlinear umax=25")
    with pytest.raises(ValueError):
        parse_battery("quadratic umax=25")


POSITIVE = st.floats(min_value=1e-30, max_value=1e30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.builds(LinearBattery, st.none() | POSITIVE),
        st.builds(NonLinearBattery, POSITIVE, st.floats(min_value=1.0, max_value=1e30, exclude_min=True)),
    )
)
def test_config_str_reads_back_to_the_same_battery(battery):
    assert parse_battery(battery.config_str()) == battery


@pytest.mark.parametrize(
    "text, message",
    [
        ("nonlinear umax=25", r"missing parameters \['beta'\] for 'nonlinear'"),
        ("linear umax=25 beta=1.1", r"unknown parameters \['beta'\] for 'linear'"),
        ("quadratic umax=25", r"unknown battery 'quadratic'"),
    ],
)
def test_battery_refusals_read_like_law_refusals(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_battery(text)
