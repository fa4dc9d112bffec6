"""The benchmark's hooks into the package; each must hold where it looks.

``perfbench/tracing.py`` swaps each ``CLI_HOOKS`` name in ``rechargetime.cli``'s
module dict and some methods in their own class ``__dict__``, and
``perfbench/run.py`` records each ``cli.run`` call as one curve. A name deleted
or moved there, or calls that stop matching the curves, break only the bench
run, which is outside this suite.
"""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from rechargetime import battery, cli, distributions, renewal

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.CLI_HOOKS))
def test_cli_binds_every_hook(name):
    assert name in vars(cli)


@pytest.mark.parametrize(
    "owner, attr",
    [(battery.NonLinearBattery, "efficiency"), (renewal.ArrivalProcess, "residual_sample")]
    + [(getattr(distributions, law), "sample") for law in tracing.LAW_NAMES],
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)
def test_swapped_method_is_in_its_own_class_dict(owner, attr):
    assert attr in owner.__dict__


def test_traced_layers_restore_every_name():
    before = dict(vars(cli))
    with tracing.traced_layers(tracing.Tracer(0)):
        assert vars(cli)["run"] is not before["run"]
    assert vars(cli) == before


def test_one_run_call_per_curve_in_curve_order(tmp_path, monkeypatch):
    # what the bench's check_run asserts of every pass: one cli.run call per
    # curve of the manifest, in order, each with all its replications' taus
    calls = []
    inner = cli.run

    def recorded_run(config, *args, **kwargs):
        samples = inner(config, *args, **kwargs)
        calls.append((config, samples.taus))
        return samples

    monkeypatch.setattr(cli, "run", recorded_run)
    parsed = cli.parse_config(
        "packets = uniform lo=0 hi=1; deterministic value=3\nu = 10, 20\nreplications = 300\ngrid = 0:0.5:60\n"
    )
    manifest = cli.run_experiment(parsed, tmp_path)
    combos = list(itertools.product(parsed.thresholds, parsed.arrivals, parsed.packets))
    assert len(manifest["curves"]) == len(calls) == len(combos) == 4
    for (u, arrival, packet), curve, (config, taus) in zip(combos, manifest["curves"], calls):
        assert (config.threshold, config.arrival.interarrival, config.packet) == (u, arrival, packet)
        assert (curve["u"], curve["arrivals"], curve["packets"]) == (u, arrival.config_str(), packet.config_str())
        assert taus.size == parsed.replications
        assert np.all(np.isfinite(taus) & (taus > 0))


def test_formula_table_calls_the_names_the_tracer_rebinds(tmp_path):
    # a table that held the series' function objects would bypass the traced
    # names, and the bench's analytic.points.* would read 0
    text = (
        "arrivals = exponential rate=1; gamma shape=2 scale=0.5\n"
        "packets = exponential rate=1; uniform lo=0 hi=2\nu = 5\nreplications = 100\ngrid = 0:0.5:30\n"
    )
    with tracing.traced_layers(tracing.Tracer(0)) as tracer:
        cli.run_experiment(cli.parse_config(text), tmp_path)
    calls = {name: tracer.total(f"analytic.{name}").calls for name in ("poisson_exact", "poisson_normal", "clt")}
    assert calls == {"poisson_exact": 1, "poisson_normal": 1, "clt": 2}
    with tracing.traced_layers(tracing.Tracer(1)) as tracer:
        cli.compare_formulas(cli.parse_config("u = 5, 10\n"))
    assert [tracer.total(f"analytic.{name}").calls for name in ("poisson_exact", "poisson_normal")] == [2, 2]
