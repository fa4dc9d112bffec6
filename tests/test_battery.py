import dataclasses
import math

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


class TestStoredFromInput:
    def test_zero_input(self):
        assert NL.stored_from_input(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_saturates_at_capacity(self):
        assert NL.stored_from_input(1e6) == pytest.approx(25.0)

    def test_offset_maps_to_half_capacity(self):
        c = NL.input_offset
        assert c == pytest.approx(13.75 * math.atanh(1.0 / 1.1))
        assert c == pytest.approx(20.93, abs=0.01)
        assert NL.stored_from_input(c) == pytest.approx(12.5)


class TestInputForLevel:
    def test_linear_identity(self):
        assert LinearBattery(umax=25.0).input_for_level(20.0) == 20.0

    def test_shifted_threshold_value(self):
        up = NL.input_for_level(20.0)
        assert up == pytest.approx(NL.input_offset + 13.75 * math.atanh(7.5 / 13.75))
        assert up == pytest.approx(29.34, abs=0.01)
        assert NL.stored_from_input(up) == pytest.approx(20.0, abs=1e-9)

    def test_half_capacity_maps_to_offset(self):
        assert NL.input_for_level(12.5) == pytest.approx(NL.input_offset)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            NL.input_for_level(0.0)
        with pytest.raises(ValueError):
            NL.input_for_level(26.0)
        # level at or above the tanh asymptote a + b is unreachable
        wide = NonLinearBattery(umax=100.0, beta=1.2)
        with pytest.raises(ValueError):
            wide.input_for_level(wide.a + wide.b)

    def test_strictly_increasing(self):
        levels = np.linspace(0.1, 24.9, 100)
        vals = [NL.input_for_level(u) for u in levels]
        assert np.all(np.diff(vals) > 0)


def step(U, x):
    """One packet of NL's per-packet rule at levels U, through the kernel's ``advance``."""
    U, x = np.asarray(U, dtype=float), np.asarray(x, dtype=float)
    return NL.advance(U, x, np.empty(np.broadcast_shapes(U.shape, x.shape)))[()]


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

    def test_linear_path_is_a_running_sum_bit_for_bit(self):
        level, packets = self.block(5)
        expected = np.empty_like(packets)
        for r, row in enumerate(packets):
            total = 0.0
            for j, x in enumerate(row):
                total += x
                expected[r, j] = total + level[r]
        got = LinearBattery().path(level, packets.copy(), 20.0)
        assert got.tobytes() == expected.tobytes()

    def test_nonlinear_path_is_advance_per_packet_bit_for_bit(self):
        level, packets = self.block(6)
        expected = np.empty_like(packets)
        for r, row in enumerate(packets):
            u = level[r]
            for j, x in enumerate(row):
                expected[r, j] = u = step(u, x)
        got = NL.path(level, packets, NL.umax)  # no level goes above umax, so no early stop
        assert got.shape == packets.shape
        assert np.ascontiguousarray(got).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("top", [5.0, 15.0, 22.0, NL.umax])
    def test_nonlinear_path_stops_after_the_first_column_with_every_row_above_top(self, top):
        level, packets = self.block(7)
        full = NL.path(level, packets, NL.umax)
        above = np.flatnonzero(full.min(axis=0) > top)
        columns = above[0] + 1 if above.size else 64
        got = NL.path(level, packets, top)
        assert got.shape == (256, columns)
        np.testing.assert_array_equal(got, full[:, :columns])

    @pytest.mark.parametrize("bad", [-1.0, np.nan], ids=["negative", "nan"])
    @pytest.mark.parametrize("battery", [LinearBattery(), NL], ids=["linear", "nonlinear"])
    def test_bad_packet_refused(self, battery, bad):
        level, packets = self.block(8)
        packets[3, 40] = bad
        with pytest.raises(ValueError, match="packet energy must be >= 0"):
            battery.path(level, packets, 20.0)


class TestTransformInvariants:
    @pytest.mark.parametrize("umax,beta", [(25.0, 1.1), (10.0, 1.5), (50.0, 2.0)])
    def test_ode_consistency_finite_difference(self, umax, beta):
        # d/dX stored_from_input == efficiency(stored_from_input)
        bat = NonLinearBattery(umax, beta)
        xs = np.linspace(0.05, bat.input_for_level(0.95 * umax), 60)
        h = 1e-6
        for x in xs:
            deriv = (bat.stored_from_input(x + h) - bat.stored_from_input(x - h)) / (2 * h)
            eta = bat.efficiency(bat.stored_from_input(x))
            assert deriv == pytest.approx(eta, rel=1e-6)

    @pytest.mark.parametrize("umax,beta", [(25.0, 1.1), (10.0, 1.5), (50.0, 2.0)])
    def test_round_trip(self, umax, beta):
        bat = NonLinearBattery(umax, beta)
        x_hi = bat.input_for_level(0.99 * min(umax, bat.a + bat.b))
        for x in np.linspace(1e-3, x_hi, 100):
            assert bat.input_for_level(bat.stored_from_input(x)) == pytest.approx(x, abs=1e-9)

    def test_huge_beta_is_linear_limit(self):
        bat = NonLinearBattery(umax=25.0, beta=1e6)
        for x in np.linspace(0.0, 25.0, 200):
            assert abs(bat.stored_from_input(x) - min(x, 25.0)) < 1e-4

    def test_step_update_converges_to_continuous_transform(self):
        x_total = 15.0
        target = NL.stored_from_input(x_total)
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
