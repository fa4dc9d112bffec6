"""The benchmark's tracer rebinds names of the package; each must exist where it looks.

``perfbench/tracing.py`` swaps each ``CLI_HOOKS`` name in ``rechargetime.cli``'s
module dict and some methods in their own class ``__dict__``. A name deleted or
moved there breaks only the traced bench run, which is outside this suite.
"""

import importlib.util
from pathlib import Path

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
