import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rechargetime import engine
from rechargetime.analytic import packet_sum_terms
from rechargetime.battery import LinearBattery, NonLinearBattery
from rechargetime.cli import (
    _KEYS,
    _MAX_SERIES_TERMS,
    ConfigError,
    _curves,
    compare_formulas,
    main,
    parse_config,
    run_experiment,
)
from rechargetime.distributions import Deterministic, Exponential, Gamma, float_str
from rechargetime.renewal import Mode

# A law parameter anywhere in the positive floats, 5e-324 to 1.7e308, with
# every power of ten in that range drawn as often as the rest
POSITIVE = st.one_of(st.floats(5e-324, 1.7e308), st.integers(-323, 308).map(lambda e: float(f"1e{e}")))


def law_text(name, *keys):
    """Config text of law ``name`` with each of ``keys`` set to a POSITIVE value."""
    values = st.tuples(*[POSITIVE] * len(keys))
    return values.map(lambda xs: " ".join([name, *(f"{k}={float_str(x)}" for k, x in zip(keys, xs))]))


LAW_TEXT = st.one_of(
    law_text("exponential", "rate"),
    law_text("gamma", "shape", "scale"),
    law_text("invgauss", "mean", "shape"),
    law_text("uniform", "lo", "hi"),
    POSITIVE.map(lambda hi: f"uniform lo=0 hi={float_str(hi)}"),
    law_text("deterministic", "value"),
)
# beta near 1, where eta(0) = 1 - 1 / beta^2 is near 0
BETA = st.one_of(st.floats(1.0, 2.0), st.integers(1, 16).map(lambda e: 1.0 + 10.0**-e))
BATTERY_TEXT = st.one_of(
    st.just("linear"), st.just("linear umax=25"), BETA.map(lambda b: f"nonlinear umax=25 beta={float_str(b)}")
)
# thresholds near 0 and near the capacity 25 of the capped batteries
THRESHOLD = st.one_of(st.floats(5e-324, 1.0), st.integers(1, 16).map(lambda e: 25.0 * (1.0 - 10.0**-e)))

PANEL_A_LINEAR = """
arrivals = exponential rate=1
packets = deterministic value=3
battery = linear
u = 20
replications = 200
seed = 42
grid = 0:0.5:60
"""


class TestParseConfig:
    def test_paper_panel_config(self):
        p = parse_config(PANEL_A_LINEAR)
        assert p.arrivals == [Exponential(1.0)]
        assert p.packets == [Deterministic(3.0)]
        assert p.battery == LinearBattery()
        assert p.thresholds == [20.0]
        assert p.seed == 42
        assert p.mode is Mode.EQUILIBRIUM
        np.testing.assert_allclose(p.grid, np.arange(0, 60.5, 0.5))

    def test_defaults(self):
        p = parse_config("u = 20")
        assert p.replications == 2000
        assert p.mode is Mode.EQUILIBRIUM

    def test_threshold_above_capacity_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("battery = nonlinear umax=25 beta=1.1\nu = 30")

    def test_threshold_at_capacity_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("battery = linear umax=25\nu = 25")

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("battery = linear umax=25\nu = 20, 30", "u"),
            ("u = -1", "u"),
            ("replications = 0", "replications"),
            ("u = 30\nbattery = linear umax=25\nreplications = 0", "replications"),
            # law and battery parameters must be finite
            ("packets = uniform lo=0 hi=inf", "packets"),
            ("packets = deterministic value=inf", "packets"),
            ("packets = gamma shape=nan scale=1", "packets"),
            ("arrivals = exponential rate=inf", "arrivals"),
            ("battery = nonlinear umax=inf beta=1.1", "battery"),
            ("battery = nonlinear umax=25 beta=inf", "battery"),
            ("battery = linear umax=inf", "battery"),
            # a law or battery parameter that is not a number names the parameter too
            ("packets = exponential rate=abc", "packets: rate"),
            ("battery = linear umax=", "battery: umax"),
        ],
        ids=[
            "above-capacity", "negative", "no-replications", "both", "uniform-hi-inf", "deterministic-inf",
            "gamma-shape-nan", "exponential-rate-inf", "nonlinear-umax-inf", "nonlinear-beta-inf", "linear-umax-inf",
            "rate-not-a-number", "umax-empty",
        ],
    )
    def test_run_config_error_names_its_key(self, lines, key):
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            parse_config(lines)

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            parse_config("battery = nonlinear umax=25 beta=1.0\nu = 20")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("threshold = 20")

    def test_series_cutoff_key_rejected(self):
        # the old fixed cut-off of the Poisson series (keys are case-insensitive);
        # the series now stop where the packet-sum CDF falls below 1e-12
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("u = 20\nN_MAX = 100")

    def test_multiple_laws(self):
        p = parse_config("packets = deterministic value=3; gamma shape=1 scale=2\nu = 20")
        assert p.packets == [Deterministic(3.0), Gamma(1.0, 2.0)]

    @pytest.mark.parametrize(
        "grid",
        [
            "5:0:1", "0:nan:10", "0:inf:10", "0:1:inf", "nan:1:10", "0:x:10", "0:1e-7:1e3", "0:2e-5:60", "0:1:1000000",
            "1e16:1:1.00000000000001e16",
        ],
    )
    def test_bad_grid(self, grid):
        # non-finite ends and steps, and grids of more than 1e6 points, are
        # refused before any array is built; a step below the spacing of
        # floats at start builds 100 equal points, refused by the array check
        with pytest.raises(ConfigError, match="^grid: "):
            parse_config(f"grid = {grid}")

    def test_grid_at_the_point_limit_accepted(self):
        assert parse_config("grid = 0:1:999999").grid.size == 10**6

    def test_nonlinear_battery(self):
        p = parse_config("battery = nonlinear umax=25 beta=1.1\nu = 20")
        assert p.battery == NonLinearBattery(25.0, 1.1)

    @pytest.mark.parametrize(
        "line, name",
        [("packets = exponential rate=1 rate=5", "rate"), ("battery = linear umax=25 umax=50", "umax")],
    )
    def test_repeated_parameter_rejected(self, line, name):
        with pytest.raises(ConfigError, match=f"repeated parameter '{name}'"):
            parse_config(f"{line}\nu = 20")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("u = 20\nseed = -1")

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "1.5"])
    def test_bad_ks_tolerance_rejected(self, tol):
        with pytest.raises(ConfigError, match="ks_tolerance"):
            parse_config(f"u = 20\nks_tolerance = {tol}")

    @pytest.mark.parametrize(
        "lines",
        ["u = 20, 20", "u = 20\npackets = exp rate=1; exponential rate=1"],
        ids=["threshold", "packet-law"],
    )
    def test_curves_sharing_a_csv_name_rejected(self, lines):
        with pytest.raises(ConfigError, match="curve_u20__exponential_rate_1__exponential_rate_1.csv"):
            parse_config(lines)

    @pytest.mark.parametrize("key", [key for key, (_, default, _) in _KEYS.items() if default is not None])
    def test_every_key_default_parses(self, key):
        field, default, parse = _KEYS[key]
        assert getattr(parse_config(""), field) == parse(default)

    def test_unknown_mode_names_its_key(self):
        with pytest.raises(ConfigError, match="^mode: must be equilibrium or pure, got 'sideways'$"):
            parse_config("mode = Sideways")

    def test_run_past_the_packet_budget_rejected(self):
        # 2000 replications of about 4e7 packets each
        with pytest.raises(ConfigError, match=r"u = 20 with packet mean 5e-07 .* budget of 1e\+09"):
            parse_config("u = 20\npackets = uniform lo=0 hi=1e-6")

    @pytest.mark.parametrize(
        "key, value, bad",
        [
            ("replications", "1e3", "1e3"),
            ("seed", "x", "x"),
            ("workers", "2.5", "2.5"),
            ("u", "20, x", "x"),
            ("ks_tolerance", "abc", "abc"),
        ],
    )
    def test_malformed_number_names_its_key(self, key, value, bad):
        with pytest.raises(ConfigError, match=rf"^{key}: expected an? (integer|number), got '{bad}'$"):
            parse_config(f"{key} = {value}")

    def test_packet_budget_takes_the_per_packet_work_not_a_bound(self):
        # 29 346 packets a replication on this battery at u = 20, 2.9e8 in
        # all; the old bound 1 + u / (eta_min Xbar) read 1.2e9
        text = "packets = deterministic value=1e-3\nu = 20\nreplications = 10000\n"
        parse_config(text + "battery = nonlinear umax=25 beta=1.1")

    def test_packet_budget_counts_battery_efficiency(self):
        # 2.0e4 packets a replication on a linear battery (8.0e8 in all), and
        # 2.9e4 on this one (1.2e9), whose efficiency starts at eta(0) = 0.17
        text = "packets = deterministic value=1e-3\nu = 20\nreplications = 40000\n"
        parse_config(text + "battery = linear umax=25")
        with pytest.raises(ConfigError, match="budget"):
            parse_config(text + "battery = nonlinear umax=25 beta=1.1")

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        arrivals=LAW_TEXT, packets=LAW_TEXT, battery=BATTERY_TEXT, u=THRESHOLD, mode=st.sampled_from(["equilibrium", "pure"])
    )
    # the packets' mean underflows to 0: a ZeroDivisionError out of parse_config
    @example(
        arrivals="exponential rate=1", packets="gamma shape=1e-300 scale=1e-300", battery="linear", u=20.0,
        mode="equilibrium",
    )
    # u' = input_for_level(u) rounds to 0: a bare ValueError from renewal_mean_tau
    @example(
        arrivals="exponential rate=1", packets="exponential rate=1", battery="nonlinear umax=25 beta=2", u=5e-324,
        mode="equilibrium",
    )
    # u' = input_for_level(u) was rounding noise, 1.07e-14 in place of u / eta(0) = 5.8e-300
    @example(
        arrivals="exponential rate=1", packets="exponential rate=1", battery="nonlinear umax=25 beta=1.1", u=1e-300,
        mode="equilibrium",
    )
    def test_every_config_is_refused_or_planned_within_the_bounds(self, arrivals, packets, battery, u, mode):
        # parsing plans every curve, and nothing is simulated
        text = f"arrivals = {arrivals}\npackets = {packets}\nbattery = {battery}\nu = {float_str(u)}\nmode = {mode}"
        try:
            parsed = parse_config(text)
        except ConfigError:
            return
        for curve in _curves(parsed):
            bat, u_prime = curve.config.battery, curve.config.input_threshold
            if u >= 1e-300:  # below, u / (b - a) may be subnormal
                # eta <= 1, and eta >= eta(0) on [0, u]; eta(0) = 1 - (a/b)^2 without its cancellation
                eta0 = (bat.b - bat.a) * (bat.b + bat.a) / bat.b**2 if isinstance(bat, NonLinearBattery) else 1.0
                assert u * (1 - 1e-12) <= u_prime <= u / eta0 * (1 + 1e-12)
            if curve.formula == "poisson_normal":
                packet = curve.config.packet
                terms = packet_sum_terms(u_prime, packet.mean, math.sqrt(packet.variance))
                assert terms <= _MAX_SERIES_TERMS


class TestRunExperiment:
    def test_writes_csvs_and_manifest(self, tmp_path):
        p = parse_config(PANEL_A_LINEAR)
        manifest = run_experiment(p, tmp_path)
        assert len(manifest["curves"]) == 1
        curve = manifest["curves"][0]
        csv = (tmp_path / curve["path"]).read_text().splitlines()
        assert csv[0] == "t,ecdf,analytic_cdf"
        assert len(csv) == 1 + len(p.grid)
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["seed"] == 42
        assert curve["formula"] == "poisson_normal"
        assert 0.0 <= curve["ks_distance"] <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        p = parse_config(PANEL_A_LINEAR)
        run_experiment(p, tmp_path / "a")
        run_experiment(p, tmp_path / "b")
        for f in (tmp_path / "a").iterdir():
            if f.suffix == ".csv":
                assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_exact_formula_for_exp_exp(self, tmp_path):
        p = parse_config("arrivals = exponential rate=1\npackets = exponential rate=1\nu = 5\nreplications = 100\ngrid = 0:1:20")
        manifest = run_experiment(p, tmp_path)
        assert manifest["curves"][0]["formula"] == "poisson_exact"

    def test_clt_for_renewal_arrivals(self, tmp_path):
        p = parse_config("arrivals = uniform lo=0 hi=1\npackets = exponential rate=1\nu = 5\nreplications = 100\ngrid = 0:1:30")
        manifest = run_experiment(p, tmp_path)
        assert manifest["curves"][0]["formula"] == "clt"

    def test_one_pool_for_all_curves(self, tmp_path, fake_pools, monkeypatch):
        # two curves of three chunks each, with the pool's break-even lowered
        # so that these small curves still use it
        monkeypatch.setattr(engine, "_POOL_BREAK_EVEN", 0)
        text = "packets = deterministic value=3; exponential rate=1\nu = 20\nreplications = 600\ngrid = 0:0.5:60\n"
        run_experiment(parse_config(text + "workers = 2\n"), tmp_path / "w2")
        assert [(p.max_workers, p.maps) for p in fake_pools] == [(2, 2)]
        run_experiment(parse_config(text), tmp_path / "w1")
        for curve in sorted((tmp_path / "w1").glob("*.csv")):
            assert (tmp_path / "w2" / curve.name).read_bytes() == curve.read_bytes()

    def test_each_curve_splits_over_the_pool(self, tmp_path, fake_pools, pool_always_pays):
        # three chunks a curve, split over the two processes that workers allows
        text = "packets = deterministic value=3; exponential rate=1\nu = 20\nreplications = 600\nworkers = 2\n"
        run_experiment(parse_config(text), tmp_path)
        assert [p.tasks for p in fake_pools] == [[2, 2]]

    def test_no_pool_below_the_break_even(self, tmp_path, fake_pools):
        # four curves of three chunks each, 6.9e4 expected packets in all
        text = (
            "packets = uniform lo=0 hi=1; deterministic value=3\nbattery = nonlinear umax=25 beta=1.1\n"
            "u = 10, 20\nreplications = 600\ngrid = 0:0.5:60\nworkers = 2\n"
        )
        parsed = parse_config(text)
        run_experiment(parsed, tmp_path / "w2")
        assert fake_pools == []
        run_experiment(dataclasses.replace(parsed, workers=1), tmp_path / "w1")
        for name in sorted(f.name for f in (tmp_path / "w1").iterdir()):
            assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()

    def test_one_simulation_per_stream(self, tmp_path, monkeypatch):
        # six curves, and three streams: the packet laws differ, the two
        # thresholds of each law share its stream
        levels_run = []
        inner = engine._run_range

        def recorded(config, levels, start, stop):
            levels_run.append((config.packet, levels.tolist()))
            return inner(config, levels, start, stop)

        monkeypatch.setattr(engine, "_run_range", recorded)
        text = (
            "packets = uniform lo=0 hi=1; deterministic value=3; exponential rate=1\n"
            "u = 10, 20\nreplications = 100\ngrid = 0:0.5:60\n"
        )
        parsed = parse_config(text)
        manifest = run_experiment(parsed, tmp_path)
        assert len(manifest["curves"]) == 6
        assert levels_run == [(packet, [10.0, 20.0]) for packet in parsed.packets]

    def test_refused_config_writes_nothing(self, tmp_path):
        # a library caller changes a parsed config, with no check by main
        # before it; every entry point checks it again
        parsed = parse_config("u = 20\nreplications = 100\ngrid = 0:1:40")
        grids = ([-1.0, 0.0, 1.0], [5.0, 1.0], [0.0, np.inf], [])
        changes = [
            ({"replications": 0}, r"replications: replications must be >= 1, got 0$"),
            ({"thresholds": [20.0, 20.0]}, r"curve_u20__exponential_rate_1__exponential_rate_1\.csv: "),
            ({"workers": 0}, "workers: "),
            ({"ks_tolerance": -1.0}, "ks_tolerance: "),
            *(({"grid": np.array(grid)}, "grid: ") for grid in grids),
        ]
        out = tmp_path / "out"
        for change, message in changes:
            changed = dataclasses.replace(parsed, **change)
            with pytest.raises(ConfigError, match=f"^{message}"):
                run_experiment(changed, out)
            assert not out.exists()
            with pytest.raises(ConfigError, match=f"^{message}"):
                compare_formulas(changed)

    @pytest.mark.parametrize(
        "formula, message",
        [("poisson_exact", "poisson_exact needs exponential arrivals and packets"), ("simpson", "^formula: must be one of")],
    )
    def test_forced_formula_checked_by_every_entry_point(self, tmp_path, formula, message):
        # a library caller changes the formula after parse_config; forced on
        # uniform packets, poisson_exact would draw them as exponential
        uniform = parse_config("packets = uniform lo=0 hi=1\nu = 5\nreplications = 100\ngrid = 0:1:20")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=message):
            run_experiment(dataclasses.replace(uniform, formula=formula), out)
        assert not out.exists()
        if formula == "simpson":
            with pytest.raises(ConfigError, match=message):
                compare_formulas(dataclasses.replace(parse_config("u = 5\ngrid = 0:1:20"), formula=formula))

    def test_every_refusal_starts_with_a_key_or_a_csv_name(self):
        # one change of a parsed config for each refusal of _curves, in its
        # order, then for each of compare_formulas; compare_formulas calls
        # _curves first, so it meets them all
        parsed = parse_config("u = 20\nreplications = 100\ngrid = 0:1:40")
        gamma, pure_step = [Gamma(2.0, 0.5)], dict(mode=Mode.PURE, packets=[Deterministic(3.0)], thresholds=[1.0])
        changes = [
            ({"ks_tolerance": 2.0}, "ks_tolerance"),
            ({"workers": 0}, "workers"),
            ({"formula": "simpson"}, "formula"),
            ({"formula": "poisson_exact", "packets": gamma}, "formula"),
            ({"grid": np.array([1.0, 0.0])}, "grid"),
            ({"thresholds": [20.0, 20.0]}, "curve_u20__exponential_rate_1__exponential_rate_1.csv"),
            ({"replications": 0}, "replications"),
            ({"seed": -1}, "seed"),
            ({"thresholds": [-1.0]}, "u"),
            ({"replications": 10**9}, "u"),
            (
                {"arrivals": [Exponential(1e-100)], "packets": [Gamma(1.0, 1e70)]},
                "curve_u20__exponential_rate_1e-100__gamma_shape_1_scale_1e+70.csv",
            ),
            ({"grid": None, **pure_step}, "curve_u1__exponential_rate_1__deterministic_value_3.csv"),
            ({"formula": "clt"}, "formula"),
            ({"arrivals": gamma}, "arrivals"),
            ({"arrivals": [Exponential(1.0), Exponential(2.0)]}, "arrivals"),
            ({"packets": gamma}, "packets"),
        ]
        for change, key in changes:
            with pytest.raises(ConfigError) as refused:
                compare_formulas(dataclasses.replace(parsed, **change))
            assert str(refused.value).startswith(f"{key}: ")
            assert key in _KEYS or key.startswith("curve_")

    @pytest.mark.parametrize(
        "packets, u",
        [("exponential rate=1e6; exponential rate=1e-6", 1e-3), ("exponential rate=1.0000001; exponential rate=1.0000002", 20)],
        ids=["six-digits-apart", "past-six-digits"],
    )
    def test_laws_that_differ_past_six_digits_write_two_csvs(self, tmp_path, packets, u):
        text = f"packets = {packets}\nu = {u}\nreplications = 50\ngrid = 0:1:40"
        manifest = run_experiment(parse_config(text), tmp_path)
        assert len(manifest["curves"]) == len(list(tmp_path.glob("*.csv"))) == 2

    @pytest.mark.parametrize(
        "u, names",
        [("20.0000001, 20.0000002", ["u20.0000001", "u20.0000002"]), ("1000000", ["u1000000"])],
        ids=["past-six-digits", "a-million"],
    )
    def test_threshold_named_by_the_shortest_text_that_reads_back(self, u, names):
        parsed = parse_config(f"u = {u}\nreplications = 5\ngrid = 0:1:40")
        assert [c.name for c in _curves(parsed)] == [f"curve_{n}__exponential_rate_1__exponential_rate_1.csv" for n in names]

    def test_thresholds_that_differ_past_six_digits_write_two_csvs(self, tmp_path):
        manifest = run_experiment(parse_config("u = 20.0000001, 20.0000002\nreplications = 5\ngrid = 0:1:40"), tmp_path)
        assert len(manifest["curves"]) == len(list(tmp_path.glob("*.csv"))) == 2

    def test_input_level_worked_out_once_a_curve_plan(self, tmp_path, monkeypatch):
        # each of the 4 curves computes u' once for its ExperimentConfig, whose
        # moments, packet estimate, pool plan and analytic curve read it
        calls = []
        inner = NonLinearBattery.input_for_level

        def counted(battery, u):
            calls.append(u)
            return inner(battery, u)

        text = (
            "packets = uniform lo=0 hi=1; deterministic value=3\nbattery = nonlinear umax=25 beta=1.1\n"
            "u = 10, 20\nreplications = 100\ngrid = 0:0.5:60\n"
        )
        parsed = parse_config(text)
        monkeypatch.setattr(NonLinearBattery, "input_for_level", counted)
        run_experiment(parsed, tmp_path)
        assert len(calls) == 4

    def test_tolerance_breach_flag(self, tmp_path):
        p = parse_config(PANEL_A_LINEAR + "ks_tolerance = 1e-9")
        manifest = run_experiment(p, tmp_path)
        assert manifest["breached"] is True


class TestPureMode:
    """An arrival, and so a packet, sits at the origin; the analytic curves count it."""

    REPLICATIONS = 20_000

    def curve(self, tmp_path, arrivals, u):
        text = (
            f"arrivals = {arrivals}\npackets = exponential rate=1\nu = {u}\n"
            f"replications = {self.REPLICATIONS}\nseed = 3\nmode = pure\n"
        )
        return run_experiment(parse_config(text), tmp_path)["curves"][0]

    def test_exact_series_within_dkw_band(self, tmp_path):
        curve = self.curve(tmp_path, "exponential rate=1", 5)
        assert curve["formula"] == "poisson_exact"
        assert curve["ks_distance"] <= curve["dkw_band_99"]

    @pytest.mark.parametrize("arrivals, u", [("exponential rate=1", 5), ("gamma shape=2 scale=0.5", 20)])
    def test_analytic_mean_within_three_standard_errors(self, tmp_path, arrivals, u):
        curve = self.curve(tmp_path, arrivals, u)
        stderr = math.sqrt(curve["mc_variance"] / self.REPLICATIONS)
        assert abs(curve["analytic_mean"] - curve["mc_mean"]) <= 3.0 * stderr


class TestCompareFormulas:
    def test_gap_shrinks_with_threshold(self):
        p = parse_config("arrivals = exponential rate=1\npackets = exponential rate=1\nu = 5,20,50")
        report = compare_formulas(p)
        gaps = [r["max_abs_gap"] for r in report["rows"]]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_identical_formula_zero_gap(self):
        from rechargetime.analytic import poisson_cdf_exp_exact

        vals = [poisson_cdf_exp_exact(20.0, t, 1.0, 1.0) for t in (5.0, 20.0)]
        assert max(abs(a - b) for a, b in zip(vals, vals)) == 0.0

    @pytest.mark.parametrize("grid", ["grid = 0:0.5:80\n", ""], ids=["grid", "default-grid"])
    def test_gap_is_the_one_between_the_curves_run_draws(self, tmp_path, grid):
        # on a non-linear battery run draws both series at u' = 29.345, not u = 20
        text = "battery = nonlinear umax=25 beta=1.1\nu = 20\nreplications = 100\n" + grid
        (row,) = compare_formulas(parse_config(text))["rows"]
        columns = []
        for formula in ("poisson_normal", "poisson_exact"):
            out = tmp_path / formula
            run_experiment(parse_config(text + f"formula = {formula}\n"), out)
            (csv,) = out.glob("*.csv")
            columns.append(np.loadtxt(csv, delimiter=",", skiprows=1)[:, 2])
        assert row["max_abs_gap"] == pytest.approx(np.max(np.abs(columns[0] - columns[1])), abs=1e-12)

    def test_rejects_non_exponential(self):
        p = parse_config("arrivals = uniform lo=0 hi=1\npackets = exponential rate=1\nu = 20")
        with pytest.raises(ConfigError):
            compare_formulas(p)


class TestMain:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(PANEL_A_LINEAR)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "KS" in capsys.readouterr().out

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 3

    def test_config_that_is_not_utf8_is_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"u = 20\n\xff\xfe bad\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot read config: ")
        assert not out.exists()

    def test_config_with_byte_order_mark_runs(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + PANEL_A_LINEAR.lstrip().encode())
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == PANEL_A_LINEAR.lstrip()

    def test_invalid_config_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("battery = nonlinear umax=25 beta=0.9\nu = 20")
        assert main(["run", str(cfg)]) == 1

    def test_breach_exit_code(self, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(PANEL_A_LINEAR + "ks_tolerance = 1e-9")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_seed_and_replication_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(PANEL_A_LINEAR)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "7", "--replications", "50"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(PANEL_A_LINEAR)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines",
        ["formula = poisson_exact", "formula = poisson_normal\narrivals = gamma shape=2 scale=0.5"],
        ids=["exact", "normal"],
    )
    def test_formula_outside_its_laws_fails_before_writing(self, tmp_path, capsys, lines):
        # the panel's packets are deterministic
        cfg = tmp_path / "formula.cfg"
        cfg.write_text(PANEL_A_LINEAR.replace("arrivals = exponential rate=1\n", "") + lines)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert "needs exponential" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, override, key",
        [
            ("battery = linear umax=25\nu = 30", [], "u"),
            ("replications = 0", [], "replications"),
            ("u = 20", ["--replications", "0"], "replications"),
            # without the check of finite parameters these hang, run out of memory or crash
            ("packets = uniform lo=0 hi=inf\nu = 5\nreplications = 100", [], "packets"),
            ("battery = nonlinear umax=inf beta=1.1\nu = 5\nreplications = 100", [], "battery"),
            ("packets = deterministic value=inf\nu = 5\nreplications = 100", [], "packets"),
            ("arrivals = exponential rate=inf\nu = 5\nreplications = 100", [], "arrivals"),
            ("battery = nonlinear umax=25 beta=inf\nu = 5\nreplications = 100", [], "battery"),
            # finite, but its variance divides by an underflowed 0
            ("arrivals = exponential rate=1e-200\nu = 5\nreplications = 100", [], "arrivals"),
            ("grid = 0:1e-7:1e3", [], "grid"),
            # each law's moments are finite, but the variance of tau overflows
            (
                "arrivals = exponential rate=1e-100\npackets = uniform lo=0 hi=1e70\nu = 20\nreplications = 100",
                [],
                "curve_u20__exponential_rate_1e-100__uniform_lo_0_hi_1e+70.csv",
            ),
            # sigma_X = 1e6 against a packet mean of 1: the normal Poisson series
            # would take about (7.1 sigma_X / Xbar)^2 = 5e13 terms, 367 TiB
            (
                "packets = invgauss mean=1 shape=1e-12\nu = 20",
                [],
                "curve_u20__exponential_rate_1__invgauss_mean_1_shape_1e-12.csv",
            ),
            # finite parameters whose mean underflows to 0: the expected packet
            # count divided by it, a ZeroDivisionError with no error line
            ("packets = gamma shape=1e-300 scale=1e-300", [], "packets"),
            ("packets = uniform lo=0 hi=5e-324", [], "packets"),
            # u > 0, but u' = input_for_level(u) rounds to 0, which renewal_mean_tau refused unnamed
            ("battery = nonlinear umax=25 beta=2\nu = 5e-324", [], "u"),
            # numpy's wald draws every packet of this law as 0, so no row ever
            # rises and the kernel steps 1e9 packets a row
            (
                "arrivals = gamma shape=2 scale=0.5\npackets = invgauss mean=1 shape=1e-30\nu = 20\nreplications = 256",
                [],
                "packets",
            ),
        ],
        ids=[
            "threshold", "replications", "replication-override", "uniform-hi-inf", "nonlinear-umax-inf",
            "deterministic-inf", "exponential-rate-inf", "nonlinear-beta-inf", "exponential-rate-underflow",
            "grid-too-fine", "variance-of-tau-overflow", "normal-series-too-long", "packets-mean-underflow",
            "uniform-mean-underflow", "nonlinear-input-underflow", "invgauss-draws-underflow",
        ],
    )
    def test_bad_run_config_fails_before_writing(self, tmp_path, capsys, lines, override, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), *override]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out.exists()

    def test_default_grid_with_a_negative_horizon_fails_before_writing(self, tmp_path, capsys):
        # pure mode, packets of 3 at u = 1: the first packet crosses, and the
        # asymptotic mean u / Xbar + E[X^2] / (2 Xbar^2) - 1 = -1/6 would end
        # the default grid at a negative time
        cfg = tmp_path / "pure.cfg"
        cfg.write_text("packets = deterministic value=3\nu = 1\nmode = pure")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: curve_u1__exponential_rate_1__deterministic_value_3.csv: ")
        assert "set a grid" in err
        assert not out.exists()

    def test_replication_override_past_the_packet_budget_rejected(self, tmp_path, capsys):
        # 4e5 packets a replication: 8e8 in all at 2000 replications, 4e9 at 10 000
        cfg = tmp_path / "fine.cfg"
        cfg.write_text("packets = uniform lo=0 hi=1e-4\nu = 20\nreplications = 2000")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--replications", "10000"]) == 1
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("formula", ["poisson_exact", "poisson_normal", "clt"])
    def test_compare_refuses_a_forced_formula(self, tmp_path, capsys, formula):
        # compare draws both Poisson series whatever formula says
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"u = 5\ngrid = 0:1:20\nformula = {formula}")
        assert main(["compare", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: formula: ")

    def test_compare_command(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text("arrivals = exponential rate=1\npackets = exponential rate=1\nu = 5,20\ngrid = 0:1:60")
        assert main(["compare", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "max |normal - exact|" in out


ROOT = Path(__file__).resolve().parents[1]
# Parses a config, then runs it (or compares, for "compare"), in a fresh
# interpreter, and prints which of ``MODULES`` were loaded after each step.
PROBE = """
import sys
from pathlib import Path
from rechargetime.cli import compare_formulas, parse_config, run_experiment
MODULES = ("scipy", "concurrent.futures", "multiprocessing", "argparse")
config, command, out = sys.argv[1:]
parsed = parse_config(Path(config).read_text())
loaded = [[m for m in MODULES if m in sys.modules]]
if command == "compare":
    compare_formulas(parsed)
else:
    run_experiment(parsed, Path(out))
loaded.append([m for m in MODULES if m in sys.modules])
print(loaded)
"""


@pytest.mark.parametrize("config", sorted((ROOT / "perfbench" / "workloads").glob("*.cfg")), ids=lambda p: p.stem)
def test_workload_loads_no_scipy_pool_or_argparse(config, tmp_path):
    # scipy.special takes most of the import time of rechargetime.cli; the
    # curves compute their special functions without it. Each workload, at
    # its own replications, runs below the engine's pool break-even; the
    # pool's modules load only for a pool and argparse only for main, so
    # none of them is set-up time of a library run
    command = "compare" if config.stem.startswith("compare") else "run"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(config), command, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[[], []]"


# Each config expects about 1e6 packets or more, above the engine's
# break-even of 1e6, so on 2 or more CPUs workers = 2 opens a real pool of
# two: the linear one 1.26e6 (60000 replications at u = 20), the per-packet
# one about 1.2e6 (20000 replications), the inverse-Gaussian one 1.03e6
# (25000 replications at u = 40).
POOL_CONFIGS = {
    "linear": "u = 20\nreplications = 60000\n",
    "per-packet": "battery = nonlinear umax=25 beta=1.1\npackets = uniform lo=0 hi=1\nu = 20\nreplications = 20000\n",
    "finish-apart": "packets = invgauss mean=1 shape=0.5\nu = 40\nreplications = 25000\n",
}


def test_a_run_above_the_pool_break_even_writes_the_same_files_at_workers_1_and_2(tmp_path, monkeypatch):
    # A range steps its chunks in groups of four, and the pool's two ranges
    # split those groups at other chunks than workers = 1 does, which the
    # files must not show. The inverse-Gaussian packets' long tail makes the
    # chunks of a group finish in different blocks, so the chunks that
    # finish first stop drawing and step on with their last block while the
    # rest of the group draws. The pools are real processes.
    pools = []  # the size of each pool the engine opens

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    # the engine imports ProcessPoolExecutor from concurrent.futures when it opens a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    for name, text in POOL_CONFIGS.items():
        outs = []
        for workers in (1, 2):
            cfg = tmp_path / f"{name}-workers{workers}.cfg"
            cfg.write_text(f"{text}workers = {workers}\n")
            outs.append(tmp_path / f"{name}-out{workers}")
            assert main(["run", str(cfg), "--out", str(outs[-1])]) == 0, f"{name}, workers = {workers}"
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs and csvs == sorted(p.name for p in outs[1].glob("*.csv")), name
        for csv in csvs:
            assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes(), f"{name}: {csv}"
        one, two = (json.loads((out / "manifest.json").read_text()) for out in outs)
        one.pop("config"), two.pop("config")  # the config text holds the workers line
        assert one == two, f"{name}: the manifests differ outside their config text"
    assert pools == ([2, 2, 2] if os.cpu_count() >= 2 else [])


# Runs a workload once to warm up, then ``passes`` more times, in a fresh
# interpreter, and prints the minor page faults of each pass on average.
FAULT_PROBE = """
import resource, sys
from pathlib import Path
from rechargetime.cli import compare_formulas, parse_config, run_experiment
config, command, out, passes = sys.argv[1:]
parsed = parse_config(Path(config).read_text())

def one_pass(run):
    if command == "compare":
        return compare_formulas(parsed)
    return run_experiment(parsed, Path(out, run))

one_pass("warm-up")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(int(passes)):
    one_pass(str(i))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / int(passes))
"""


@pytest.mark.parametrize("config", sorted((ROOT / "perfbench" / "workloads").glob("*.cfg")), ids=lambda p: p.stem)
def test_kernel_does_not_page_fault_per_block(config, tmp_path):
    # The kernel draws and steps every block in three planes kept per range of
    # chunks: the gaps, the packets, and a third plane that holds first the
    # path, which both rules write there as [k, rows], a packet column into
    # a plane row at a time, and then the running sum of the gaps that dates
    # the block's crossings. Arrays allocated per block were trimmed by glibc and faulted
    # back by the next block: about 4500 and 3000 minor faults a pass on
    # poisson_linear and nonlinear_per_packet, against 3 and 0 with the planes
    # (Python 3.11, numpy 2.4, 2 vCPUs). renewal_equilibrium runs the kernel
    # on renewal arrivals and compare_series the analytic series alone; both
    # read about 1 or less. A fresh interpreter keeps the heap that other
    # tests leave out of the count.
    command = "compare" if config.stem.startswith("compare") else "run"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, str(config), command, str(tmp_path / "out"), "5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 50  # minor faults per pass
