"""rechargetime benchmark: four closed-loop workloads through the CLI entry points.

Usage, from the root of a rechargetime checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of the configs in perfbench/workloads/; each says why it was
chosen. The benchmark parses it with ``rechargetime.cli.parse_config``, sets
its seed to --seed, and calls ``run_experiment`` (``compare_formulas`` for
compare_series) one pass after another from this process, starting a pass
only while it is expected to end within --seconds seconds. ``all`` runs
every workload in turn, each in its own process.

--trace 0 prints the end-to-end metrics, measured with nothing traced:
  pass_cpu_s   median over the passes of the CPU seconds one pass takes, this
               process's and its pool workers' together, rescaled by the speed
               probe of speed.py to the speed of an uncontended core. One pass
               is one call of the entry point, CSV and manifest writes
               included. Not wall time: on a shared host, wall time also
               counts the time the host runs someone else on our vCPU, and
               CPU time follows the host's faster and slower spells; either
               put the quartiles of ten runs of the same code 15-27% of
               their median apart.
               Wall and unscaled CPU time are printed above the result line
               and kept in perfbench/out/, with quartiles and pass count.
  setup_s      median over fresh interpreters of the CPU seconds of importing
               rechargetime plus parse_config of the workload config, rescaled
               by the speed probe in the same way
  peak_rss_mb  the larger of this process's and its children's peak RSS

--trace 1 repeats cycles of three passes: one traced at workers=1, one
untraced at workers=1 and, on workloads that run the engine, one untraced at
workers=2. It prints the per-layer metrics in PER_LAYER, the medians over the
cycles. A layer metric reads 0 on a workload that never calls the layer.

An operation is a curve (run) or a row (compare). It fails if the call
raises, if a tau is not finite and positive, if a CDF column is outside
[0, 1] or decreasing, or if the manifest's KS disagrees with the CSV. On
poisson_linear only, it also fails when its KS exceeds the 0.06 acceptance
budget; elsewhere KS compares with an approximation and is only a readout.
In the traced run every output file is also compared byte for byte across
the three passes; a mismatch is a failed operation. ``correct`` is false
when any operation failed for a reason other than the KS budget, so a known
accuracy defect stays visible in ``failed`` without marking the outputs
invalid.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The environment and every number behind the result go
to perfbench/out/, with the spans of the traced run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import ExitStack, nullcontext
from itertools import zip_longest
from pathlib import Path

import numpy as np

from speed import SpeedProbe, at_reference_speed
from tracing import Tracer, swap, traced_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("poisson_linear", "renewal_equilibrium", "nonlinear_per_packet", "compare_series")
COMPARE_WORKLOADS = ("compare_series",)
KS_BUDGET = 0.06
KS_BUDGET_WORKLOADS = ("poisson_linear",)

SETUP_REPEATS = 5  # fresh interpreters per run for setup_s
PROBE_REPEATS = 5  # repeats of the in-process parse_config and stream-setup probes
SMOKE_REPLICATIONS = 40
SMOKE_POINTS = 41

FORMULAS = ("poisson_exact", "poisson_normal", "clt")
RESIDUAL_LAWS = ("exponential", "gamma", "invgauss")
COMPARE_THRESHOLDS = (20, 80, 150)  # the u values of compare_series.cfg

END_TO_END = {"pass_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.parse_config_ms": "ms",
    "cli.self_s": "s",
    "engine.self_s": "s",
    "engine.replications": "count",
    "engine.us_per_replication": "us",
    "engine.stream_setup_us_per_rep": "us",
    "engine.parallel_speedup": "ratio",
    "renewal.self_s": "s",
    "renewal.residual_draws": "count",
    **{f"renewal.residual_us_per_draw.{law}": "us" for law in RESIDUAL_LAWS},
    "distributions.self_s": "s",
    "distributions.sample_calls": "count",
    "distributions.values_drawn": "count",
    "distributions.values_per_replication": "count/rep",
    "battery.efficiency_calls": "count",
    "battery.efficiency_s": "s",
    "analytic.self_s": "s",
    **{f"analytic.points.{f}": "count" for f in FORMULAS},
    **{f"analytic.us_per_point.{f}": "us" for f in FORMULAS},
    **{f"analytic.compare_max_gap.u{u}": "prob" for u in COMPARE_THRESHOLDS},
    "stats.summarize_ms": "ms",
    "stats.ks_ms": "ms",
    "stats.ks_max": "prob",
    "stats.ks_over_dkw_max": "ratio",
    "stats.ks_breaches": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed; ``invalid`` lists broken outputs."""

    attempted: int = 0
    failed: int = 0
    invalid: list = dataclasses.field(default_factory=list)
    over_budget: list = dataclasses.field(default_factory=list)

    def record(self, op: str, problems=(), over_budget: str | None = None) -> None:
        self.attempted += 1
        self.invalid += [f"{op}: {p}" for p in problems]
        if over_budget:
            self.over_budget.append(f"{op}: {over_budget}")
        if problems or over_budget:
            self.failed += 1


@dataclasses.dataclass
class Pass:
    wall_s: float
    cpu_s: float  # user + system time of this process and of the children reaped during the pass
    result: dict | None  # manifest of run_experiment or report of compare_formulas
    engine_s: float  # time inside engine.run, all curves


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def per(num: float, den: float) -> float:
    return num / den if den else 0.0


def shrink(parsed):
    """Smoke-sized copy of a config: few replications, a coarse grid."""
    grid = parsed.grid
    if grid is not None:
        grid = grid[:: max(1, len(grid) // (SMOKE_POINTS - 1))]
    return dataclasses.replace(parsed, replications=min(parsed.replications, SMOKE_REPLICATIONS), grid=grid)


def n_operations(parsed, compare: bool) -> int:
    return len(parsed.thresholds) * (1 if compare else len(parsed.arrivals) * len(parsed.packets))


def run_pass(workload, parsed, out_dir: Path, tally: Tally | None, probe: SpeedProbe | None = None) -> Pass:
    """One call of the workload's entry point; checks its outputs into ``tally``.

    With ``probe``, the probe runs inside the pass and its CPU time is taken
    out of the pass's ``cpu_s``.
    """
    from rechargetime import cli

    calls = []  # (seconds, taus) per engine.run call
    inner_run = cli.run

    def recorded_run(*args, **kwargs):
        start = time.perf_counter()
        samples = inner_run(*args, **kwargs)
        calls.append((time.perf_counter() - start, samples.taus))
        return samples

    compare = workload in COMPARE_WORKLOADS
    with ExitStack() as stack:
        swap(stack, cli, "run", recorded_run)
        start, cpu_start = time.perf_counter(), cpu_seconds()
        with probe or nullcontext():
            try:
                result = cli.compare_formulas(parsed) if compare else cli.run_experiment(parsed, out_dir)
            except Exception as exc:  # a raising call is a failed operation, not a crash
                result, error = None, f"raised {exc!r}"
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start - (probe.in_pass_s if probe else 0.0)
    engine_s = sum(s for s, _ in calls)
    if tally is not None:
        if result is None:
            for i in range(n_operations(parsed, compare)):
                tally.record(f"operation {i}", [error])
        elif compare:
            check_compare(parsed, result, tally)
        else:
            check_run(workload, parsed, result, calls, out_dir, tally)
    return Pass(wall, cpu, result, engine_s)


def check_run(workload, parsed, manifest, calls, out_dir: Path, tally: Tally) -> None:
    for i, curve, call in zip_longest(range(n_operations(parsed, False)), manifest["curves"], calls):
        if i is None or curve is None or call is None:
            tally.record(f"curve {i}", ["curve count differs from the config's combinations"])
            continue
        problems = []
        taus = call[1]
        if taus.size != parsed.replications:
            problems.append(f"{taus.size} taus for {parsed.replications} replications")
        if not np.all(np.isfinite(taus) & (taus > 0)):
            problems.append("a tau is not finite and positive")
        try:
            t, emp, ana = np.loadtxt(out_dir / curve["path"], delimiter=",", skiprows=1, unpack=True, ndmin=2)
        except (OSError, ValueError) as exc:
            tally.record(curve["path"], [f"unreadable CSV: {exc}"])
            continue
        if parsed.grid is not None and not np.array_equal(t, parsed.grid):
            problems.append("t column differs from the grid")
        for label, col in (("ecdf", emp), ("analytic_cdf", ana)):
            if np.any(col < 0) or np.any(col > 1) or np.any(np.diff(col) < 0):
                problems.append(f"{label} is not a CDF")
        ks = float(np.max(np.abs(emp - ana)))
        if abs(ks - curve["ks_distance"]) > 1e-12:
            problems.append(f"manifest KS {curve['ks_distance']} but CSV gives {ks}")
        over = workload in KS_BUDGET_WORKLOADS and ks > KS_BUDGET
        tally.record(curve["path"], problems, f"KS {ks:.4f} > {KS_BUDGET}" if over else None)


def check_compare(parsed, report, tally: Tally) -> None:
    for u, row in zip_longest(parsed.thresholds, report["rows"]):
        if u is None or row is None or row["u"] != u:
            tally.record(f"row u={u}", ["rows differ from the config's thresholds"])
            continue
        gap = row["max_abs_gap"]
        ok = np.isfinite(gap) and 0.0 <= gap <= 1.0
        tally.record(f"row u={u:g}", [] if ok else [f"max_abs_gap {gap} outside [0, 1]"])


def check_identical(dirs: list[Path], tally: Tally) -> None:
    """Criterion 8 from outside: every output file byte-identical across passes."""
    first = dirs[0]
    for path in sorted(p.name for p in first.iterdir()):
        data = (first / path).read_bytes()
        differs = [d.name for d in dirs[1:] if not (d / path).is_file() or (d / path).read_bytes() != data]
        tally.record(f"identical {path}", [f"differs in {', '.join(differs)}"] if differs else [])


def warm_up(workload, parsed, work_dir: Path) -> None:
    """An untimed, unchecked smoke-sized pass and probe, so lazy imports finish first."""
    run_pass(workload, shrink(parsed), work_dir / "warm-up", None)
    SpeedProbe().bracket()


def setup_seconds(config_path: Path, repeats: int) -> list[dict]:
    """Set-up times from ``repeats`` fresh interpreters, with setup_s rescaled by the probe."""
    out = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        sample["setup_s"] = at_reference_speed(sample["cpu_s"], sample.pop("probe_samples"))
        out.append(sample)
    return out


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stream_setup_us_per_rep(seed: int, n: int, repeats: int) -> float:
    """Time SeedSequence(seed).spawn(n) plus n default_rng calls, per replication."""

    def setup():
        for child in np.random.SeedSequence(seed).spawn(n):
            np.random.default_rng(child)

    return median_time(setup, repeats) / n * 1e6


def ks_readouts(manifest) -> dict:
    curves = manifest["curves"] if manifest else []
    ks = [c["ks_distance"] for c in curves]
    return {
        "stats.ks_max": max(ks, default=0.0),
        "stats.ks_over_dkw_max": max((c["ks_distance"] / c["dkw_band_99"] for c in curves), default=0.0),
        "stats.ks_breaches": sum(k > KS_BUDGET for k in ks),
    }


def layer_metrics(tr: Tracer, parsed, traced: Pass, w1: Pass, w2: Pass | None, compare: bool) -> dict:
    """Per-layer numbers of one traced cycle."""
    engine = tr.total("engine.run")
    reps = engine.calls * parsed.replications
    sample = tr.total("distributions.sample")
    eff = tr.total("battery.efficiency")
    m = {
        "cli.self_s": tr.layer_self_s("cli"),
        "engine.self_s": tr.layer_self_s("engine"),
        "engine.replications": reps,
        "engine.us_per_replication": per(engine.inclusive_s * 1e6, reps),
        "engine.parallel_speedup": per(w1.engine_s, w2.engine_s) if w2 else 0.0,
        "renewal.self_s": tr.layer_self_s("renewal"),
        "renewal.residual_draws": sum(t.calls for k, t in tr.totals.items() if k.startswith("renewal.residual.")),
        "distributions.self_s": tr.layer_self_s("distributions"),
        "distributions.sample_calls": sample.calls,
        "distributions.values_drawn": sample.values,
        "distributions.values_per_replication": per(sample.values, reps),
        "battery.efficiency_calls": eff.calls,
        "battery.efficiency_s": eff.inclusive_s,
        "analytic.self_s": tr.layer_self_s("analytic"),
        "stats.summarize_ms": tr.total("stats.summarize").inclusive_s * 1e3,
        "stats.ks_ms": tr.total("stats.ks_distance").inclusive_s * 1e3,
        "trace.overhead_s": traced.wall_s - w1.wall_s,
        "trace.spans": len(tr.spans),
    }
    for law in RESIDUAL_LAWS:
        t = tr.total(f"renewal.residual.{law}")
        m[f"renewal.residual_us_per_draw.{law}"] = per(t.inclusive_s * 1e6, t.calls)
    for f in FORMULAS:
        t = tr.total(f"analytic.{f}")
        m[f"analytic.points.{f}"] = t.calls
        m[f"analytic.us_per_point.{f}"] = per(t.inclusive_s * 1e6, t.calls)
    gaps = {row["u"]: row["max_abs_gap"] for row in traced.result["rows"]} if compare and traced.result else {}
    for u in COMPARE_THRESHOLDS:
        m[f"analytic.compare_max_gap.u{u}"] = gaps.get(u, 0.0)
    m.update(ks_readouts(None if compare else traced.result))
    return m


def measure_end_to_end(workload, parsed, config_path, args, work_dir, tally, report) -> dict:
    warm_up(workload, parsed, work_dir)
    walls, cpus, probe_means, rescaled = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() + walls[-1] < deadline:  # next pass should end in time
        pass_dir = work_dir / f"pass{len(walls)}"
        probe = SpeedProbe()
        probe.bracket()
        done = run_pass(workload, parsed, pass_dir, tally, probe)
        probe.bracket()
        shutil.rmtree(pass_dir, ignore_errors=True)
        walls.append(done.wall_s)
        cpus.append(done.cpu_s)
        probe_means.append(statistics.fmean(probe.samples))
        rescaled.append(at_reference_speed(done.cpu_s, probe.samples))
    setups = setup_seconds(config_path, 1 if args.smoke else SETUP_REPEATS)
    report.update(passes=len(walls), pass_cpu_s_passes=rescaled, cpu_s_passes=cpus, wall_s_passes=walls,
                  probe_mean_s=probe_means, setup=setups)
    for name, values in (("pass_cpu_s", rescaled), ("cpu_s", cpus), ("wall_s", walls)):
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        report.update({f"{name}_q1": q1, f"{name}_q3": q3})
        print(f"  {name:12s} median {statistics.median(values):.4f} s  q1 {q1:.4f} s  q3 {q3:.4f} s  n={len(values)} passes")
    print(f"  setup_s      median {statistics.median(s['setup_s'] for s in setups):.4f} s  n={len(setups)} interpreters")
    return {
        "pass_cpu_s": statistics.median(rescaled),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_layers(workload, parsed, args, work_dir, tally, report) -> dict:
    from rechargetime.cli import parse_config

    compare = workload in COMPARE_WORKLOADS
    repeats = 1 if args.smoke else PROBE_REPEATS
    parse_ms = median_time(lambda: parse_config(parsed.raw_text), repeats) * 1e3
    stream_us = stream_setup_us_per_rep(parsed.seed, parsed.replications, repeats)
    warm_up(workload, parsed, work_dir)
    cycles, traces = [], []
    start = time.perf_counter()
    elapsed = 0.0
    while not cycles or elapsed + elapsed / len(cycles) < args.seconds:  # next cycle should end in time
        c = len(cycles)
        tracer = Tracer(c)
        dirs = [work_dir / f"c{c}-traced", work_dir / f"c{c}-w1", work_dir / f"c{c}-w2"]
        one = dataclasses.replace(parsed, workers=1)
        with traced_layers(tracer):
            traced = run_pass(workload, one, dirs[0], tally)
        w1 = run_pass(workload, one, dirs[1], tally)
        w2 = None
        if not compare:
            w2 = run_pass(workload, dataclasses.replace(parsed, workers=2), dirs[2], tally)
            check_identical(dirs, tally)
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        cycles.append(layer_metrics(tracer, parsed, traced, w1, w2, compare))
        traces.append(tracer)
        elapsed = time.perf_counter() - start
    metrics = {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}
    metrics["cli.parse_config_ms"] = parse_ms
    metrics["engine.stream_setup_us_per_rep"] = stream_us
    report.update(passes=len(cycles) * (2 if compare else 3), cycles=cycles)
    report["spans_file"] = write_spans(workload, args.seed, traces, report["env"])
    return metrics


def write_spans(workload, seed, traces: list[Tracer], env) -> str:
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "env": env,
        "span_fields": ["id", "name", "start", "end", "parent"],
        "traces": [
            {
                "trace_id": tr.trace_id,
                "spans": tr.spans,
                "totals": {k: dict(calls=t.calls, inclusive_s=t.inclusive_s, self_s=t.self_s, values=t.values)
                           for k, t in tr.totals.items()},
            }
            for tr in traces
        ],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return str(path.relative_to(ROOT))


def environment(seed: int) -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rechargetime").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so peak RSS stays its own."""
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        code = max(code, subprocess.run(cmd).returncode)
    return code


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny replications and grids, for testing the harness")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    config_path = HERE / "workloads" / f"{args.workload}.cfg"
    if not (SRC / "rechargetime" / "__init__.py").is_file():
        print(f"error: no rechargetime package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from rechargetime.cli import parse_config

    parsed = parse_config(config_path.read_text())
    parsed.seed = args.seed
    if args.smoke:
        parsed = shrink(parsed)
    env = environment(args.seed)
    report = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke, "env": env}
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s{', smoke' if args.smoke else ''})")
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            metrics, units = measure_layers(args.workload, parsed, args, work_dir, tally, report), PER_LAYER
        else:
            metrics, units = measure_end_to_end(args.workload, parsed, config_path, args, work_dir, tally, report), END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(f"  operations   attempted {tally.attempted}  failed {tally.failed}  in {report['passes']} passes")
    for line, n in list(Counter(tally.over_budget + tally.invalid).items())[:20]:
        print(f"    failed {n}x {line}")
    result = {
        "correct": not tally.invalid,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report.update(result, over_budget=tally.over_budget, invalid=tally.invalid)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
