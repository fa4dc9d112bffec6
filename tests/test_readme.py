"""The README's library example and CLI config example, used as written."""

import re
from pathlib import Path

import numpy as np

from rechargetime import run
from rechargetime.cli import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)


def cli_config_block():
    """The untagged fenced block of the README's CLI section: the example config."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    (block,) = [body for tag, body in fences if not tag]
    return block


def test_cli_config_example_parses():
    parsed = parse_config(cli_config_block())
    assert parsed.thresholds == [10.0, 20.0]
    assert parsed.workers == 4
    assert parsed.grid.size == 121


def test_library_example_runs_in_one_process(fake_pools, capsys):
    # 10 000 replications at u = 20 expect 2.1e5 packets, below the pool
    # break-even, so workers = 4 starts no pool and changes no tau
    (block,) = python_blocks()
    names = {}
    exec(block, names)
    assert fake_pools == []
    np.testing.assert_array_equal(names["samples"].taus, run(names["cfg"], workers=1).taus)
    mean, variance = map(float, capsys.readouterr().out.split()[:2])
    assert abs(mean - 21.0) < 0.5 and abs(variance - 41.0) < 4.0
