"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public callables of each rechargetime layer from the
outside: the names that ``rechargetime.cli`` looks up at call time, and the
class methods the engine calls per replication, per draw block and per
packet. Nothing in the package changes.

Coarse calls (entry points, ``engine.run``, analytic points, KS) are recorded
as spans ``(id, name, start, end, parent id)``. Per-block and per-packet calls
(``<Law>.sample``, ``ArrivalProcess.residual_sample``,
``NonLinearBattery.efficiency``) run up to millions of times a pass, so they
are only aggregated: call count, inclusive time, self time and values drawn.
Either way a call's duration is added to its caller's child coverage, so a
span's self time is its duration minus the time its direct children cover.
Spans must be collected in one process: pool workers' spans do not come back.
"""

from __future__ import annotations

import itertools
import time
from contextlib import ExitStack, contextmanager

import numpy as np

# Config-grammar keyword of each law class, used in per-law metric names.
LAW_NAMES = {
    "Exponential": "exponential",
    "Gamma": "gamma",
    "InverseGaussian": "invgauss",
    "Uniform": "uniform",
    "Deterministic": "deterministic",
}

# Names rechargetime.cli looks up at call time -> span name. The prefix
# before the first dot is the layer the time is charged to.
CLI_HOOKS = {
    "run_experiment": "cli.run_experiment",
    "compare_formulas": "cli.compare_formulas",
    "run": "engine.run",
    "summarize": "stats.summarize",
    "poisson_cdf_exp_exact": "analytic.poisson_exact",
    "poisson_cdf_normal": "analytic.poisson_normal",
    "renewal_cdf_clt": "analytic.clt",
    "nonlinear_cdf": "analytic.nonlinear_cdf",
    "ks_distance": "stats.ks_distance",
    "dkw_band": "stats.dkw_band",
}


class Total:
    """Aggregate of every call made under one span name."""

    __slots__ = ("calls", "inclusive_s", "self_s", "values")

    def __init__(self):
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.values = 0


class Tracer:
    """Spans and per-name totals of one traced pass; ``trace_id`` tags its spans."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or None)
        self.totals: dict[str, Total] = {}
        self._stack: list[list] = []  # open calls: [id, child seconds]
        self._ids = itertools.count()

    def wrap(self, fn, name, *, record=True, count_values=False):
        """Return ``fn`` timed under ``name``.

        ``name`` is a string or a function of ``fn``'s positional arguments
        that returns one. ``record=False`` aggregates without keeping spans;
        ``count_values`` adds the size of each result to the total.
        """
        stack, spans, totals, ids = self._stack, self.spans, self.totals, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            key = name(*args) if callable(name) else name
            frame = [next(ids), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                total = totals.get(key)
                if total is None:
                    total = totals[key] = Total()
                total.calls += 1
                total.inclusive_s += duration
                total.self_s += duration - frame[1]
                if record:
                    spans.append((frame[0], key, start, end, parent[0] if parent else None))
            if count_values:
                total.values += np.size(result)
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(t.self_s for k, t in self.totals.items() if k.split(".", 1)[0] == layer)

    def total(self, name: str) -> Total:
        return self.totals.get(name, Total())


def swap(stack: ExitStack, owner, attr: str, new) -> None:
    old = owner.__dict__[attr]
    setattr(owner, attr, new)
    stack.callback(setattr, owner, attr, old)


@contextmanager
def traced_layers(tracer: Tracer):
    """Rebind every layer callable to a traced wrapper; restore them on exit."""
    from rechargetime import battery, cli, distributions, renewal

    def residual_name(process, *_):
        return "renewal.residual." + LAW_NAMES[type(process.interarrival).__name__]

    with ExitStack() as stack:
        for attr, span in CLI_HOOKS.items():
            swap(stack, cli, attr, tracer.wrap(getattr(cli, attr), span))
        for cls_name in LAW_NAMES:
            cls = getattr(distributions, cls_name)
            wrapped = tracer.wrap(cls.sample, "distributions.sample", record=False, count_values=True)
            swap(stack, cls, "sample", wrapped)
        proc = renewal.ArrivalProcess
        swap(stack, proc, "residual_sample", tracer.wrap(proc.residual_sample, residual_name, record=False))
        bat = battery.NonLinearBattery
        swap(stack, bat, "efficiency", tracer.wrap(bat.efficiency, "battery.efficiency", record=False))
        yield tracer
