"""Config-driven experiment runner.

Config files are flat key-value lines, e.g.::

    arrivals = exponential rate=1
    packets = deterministic value=3; gamma shape=1 scale=2
    battery = nonlinear umax=25 beta=1.1
    u = 20
    replications = 2000
    seed = 42
    grid = 0:0.5:60

Semicolons in ``arrivals`` / ``packets`` list several laws. ``run`` emits one
curve (CSV of t, ecdf, analytic_cdf) per (threshold, arrival, packet)
combination plus a JSON manifest with KS distances and moment summaries;
``compare`` tabulates the gap between the two Poisson series per threshold.

``parse_config`` reads the text. The table ``_KEYS`` gives each key's
``ParsedConfig`` field, the text an absent key reads as and the parser of its
value, which refuses with a ValueError that ``parse_config`` puts the key in
front of; a law or battery is read by ``distributions.parse_spec``.
``_curves`` is the one check of a ``ParsedConfig`` and makes each curve's
decisions once: its ``ExperimentConfig`` (which checks the threshold,
replications, seed and expected packets, as the laws and the battery check
their parameters), CSV name, formula, grid and asymptotic moments of tau at
u' = ``ExperimentConfig.input_threshold``. ``parse_config``,
``run_experiment`` and ``compare_formulas`` each call it, so a config changed
after parsing is checked again before anything is written; every refusal
starts with its key or its curve's CSV name.
The table ``_FORMULAS`` alone says which laws each formula needs. Each
analytic curve, of ``run`` and ``compare`` alike, is one call of its formula
on the whole grid at the u' its plan's ``ExperimentConfig`` already holds, so
a non-linear battery's curve is the continuous model's. The Poisson series
have no truncation setting: they stop where the packet-sum CDF falls below
1e-12. The engine's ``Streams`` plans from the packet estimates whether one
process pool for all curves pays. ``workers`` is an upper bound. Exit
codes: 0 ok, 1 validation error, 2 KS tolerance breach, 3 I/O error.
``argparse`` is loaded by ``main`` alone, so a library caller of
``parse_config`` and ``run_experiment`` does not import it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .analytic import (
    nonlinear_cdf,  # unused here; perfbench's CLI_HOOKS rebind it, so test_bench_hooks pins it (ROADMAP item 12)
    packet_sum_terms,
    poisson_cdf_exp_exact,
    poisson_cdf_normal,
    renewal_cdf_clt,
    renewal_mean_tau,
    renewal_var_tau,
)
from .battery import BatteryModel, parse_battery
from .distributions import DistributionSpec, Exponential, float_str, parse_distribution
from .engine import ExperimentConfig, Streams, run, summarize
from .renewal import ArrivalProcess, Mode
from .stats import CdfCurve, dkw_band, ks_distance

__all__ = ["ConfigError", "ParsedConfig", "parse_config", "run_experiment", "compare_formulas", "main"]

# Points a configured grid may hold; each curve writes one CSV row per point.
_MAX_GRID_POINTS = 10**6
# Terms a poisson_normal curve's series may hold (``packet_sum_terms``), about
# (7.1 sigma_X / Xbar)^2 once the packets' spread sets it. A term costs about
# 80 bytes and 0.13 us while the series is built, so 0.8 GB and 1.3 s at the
# bound (Python 3.11, numpy 2.4). It holds every series that the packet budget
# lets a law of coefficient of variation 1 or less ask for, at most 3.9e6
# terms; a coefficient of variation of 446 or more passes it at any threshold.
_MAX_SERIES_TERMS = 10**7


class ConfigError(ValueError):
    pass


class _Formula(NamedTuple):
    arrivals: type  # the inter-arrival law the formula needs
    packets: type  # the packet law it needs
    needs: str  # the refusal of a forced formula whose laws do not fit
    cdf: Callable  # (u', t, arrival process, packet law) -> P(tau <= t) at the linear threshold u'

    def fits(self, arrival: DistributionSpec, packet: DistributionSpec) -> bool:
        return isinstance(arrival, self.arrivals) and isinstance(packet, self.packets)


# Every formula, in the order ``auto`` tries them. Each CDF looks its series up
# in this module when it is called, so a name rebound here is the one called.
_FORMULAS = {
    "poisson_exact": _Formula(
        Exponential, Exponential, "needs exponential arrivals and packets",
        lambda u, t, a, x: poisson_cdf_exp_exact(u, t, 1.0 / a.interarrival.mean, x.mean, mode=a.mode),
    ),
    "poisson_normal": _Formula(
        Exponential, object, "needs exponential inter-arrival times",
        lambda u, t, a, x: poisson_cdf_normal(
            u, t, 1.0 / a.interarrival.mean, x.mean, math.sqrt(x.variance), mode=a.mode
        ),
    ),
    "clt": _Formula(object, object, "", lambda u, t, a, x: renewal_cdf_clt(u, t, a, x)),
}


@dataclass
class ParsedConfig:
    arrivals: List[DistributionSpec]
    packets: List[DistributionSpec]
    battery: BatteryModel
    thresholds: List[float]
    replications: int
    seed: int
    grid: Optional[np.ndarray]
    mode: Mode
    formula: str
    ks_tolerance: Optional[float]
    workers: int
    raw_text: str


def _parse_grid(text: str) -> np.ndarray:
    m = re.fullmatch(r"\s*([^:]+):([^:]+):([^:]+)\s*", text)
    if not m:
        raise ValueError(f"expected start:step:stop, got {text!r}")
    start, step, stop = (_number(g) for g in m.groups())
    if not (0.0 < step < np.inf and 0.0 <= start < stop < np.inf):
        raise ValueError(f"needs finite start >= 0, step > 0 and stop > start, got {text!r}")
    if (stop - start) / step + 1 > _MAX_GRID_POINTS:  # before the array is built
        raise ValueError(f"{text!r} has more than {_MAX_GRID_POINTS:.0e} points")
    return np.arange(start, stop + 0.5 * step, step)


def _number(text: str, kind: type = float):
    """``kind(text)``, or a ValueError that says what was expected."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"expected {what}, got {text.strip()!r}") from None


def _laws(text: str) -> List[DistributionSpec]:
    return [parse_distribution(s) for s in text.split(";")]


def _mode(text: str) -> Mode:
    try:
        return Mode(text.lower())
    except ValueError:
        raise ValueError(f"must be equilibrium or pure, got {text.lower()!r}") from None


# Every config key, in the order its value is read: the ParsedConfig field it
# sets, the text an absent key reads as (None leaves the field None), and the
# parser of its value.
_KEYS = {
    "arrivals": ("arrivals", "exponential rate=1", _laws),
    "packets": ("packets", "exponential rate=1", _laws),
    "battery": ("battery", "linear", parse_battery),
    "u": ("thresholds", "20", lambda text: [_number(s) for s in text.split(",")]),
    "replications": ("replications", "2000", lambda text: _number(text, int)),
    "seed": ("seed", "0", lambda text: _number(text, int)),
    "workers": ("workers", "1", lambda text: _number(text, int)),
    "ks_tolerance": ("ks_tolerance", None, _number),
    "grid": ("grid", None, _parse_grid),
    "mode": ("mode", "equilibrium", _mode),
    "formula": ("formula", "auto", str.lower),
}


def parse_config(text: str) -> ParsedConfig:
    """Type a config file's values and check its keys, then check the config with ``_curves``."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    typed = {}
    for key, (field, default, parse) in _KEYS.items():
        value = values.get(key, default)
        try:
            typed[field] = None if value is None else parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    parsed = ParsedConfig(**typed, raw_text=text)
    _curves(parsed)
    return parsed


class _Curve(NamedTuple):
    """One curve's plan, made by ``_curves``."""

    config: ExperimentConfig
    name: str  # its CSV's file name
    formula: str  # the row of _FORMULAS that draws its analytic CDF
    grid: np.ndarray
    mean: float  # asymptotic mean of tau at u'
    variance: float  # asymptotic variance of tau at u'


def _curves(parsed: ParsedConfig) -> List[_Curve]:
    """Check ``parsed`` and plan each (threshold, arrival, packet) curve, in curve order.

    This is the one check of a config. It refuses, in this order: a
    ``ks_tolerance`` outside (0, 1]; ``workers`` below 1; a forced
    ``formula`` that is not a row of ``_FORMULAS`` or does not fit every
    arrival and packet law; a grid that is not a non-empty, finite,
    non-negative and strictly increasing 1-D array. Then, curve by curve: a
    CSV name an earlier curve writes; what ``ExperimentConfig`` refuses (the
    replications, the seed, the threshold against the battery's capacity and
    the expected packets, in that order), under the key at fault; an
    asymptotic mean or variance of tau at u' that is not a finite float,
    which the manifest could not hold as JSON; without a grid a mean that
    is not positive, since the default grid of 201 points ends at 3 times it;
    and a ``poisson_normal`` curve whose series has more than
    ``_MAX_SERIES_TERMS`` terms.
    Each refusal is a ConfigError that starts with its key or the curve's CSV
    name. Under ``auto`` a curve takes the first row of ``_FORMULAS`` that
    fits its laws.
    """
    tol = parsed.ks_tolerance
    if tol is not None and not 0.0 < tol <= 1.0:
        raise ConfigError(f"ks_tolerance: must be a finite value in (0, 1], got {tol}")
    if parsed.workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {parsed.workers}")
    formula = parsed.formula
    if formula != "auto" and formula not in _FORMULAS:
        raise ConfigError(f"formula: must be one of {sorted(['auto', *_FORMULAS])}, got {formula!r}")
    pairs = itertools.product(parsed.arrivals, parsed.packets)
    if formula != "auto" and not all(_FORMULAS[formula].fits(*laws) for laws in pairs):
        raise ConfigError(f"formula: {formula} {_FORMULAS[formula].needs}")
    grid = None if parsed.grid is None else np.asarray(parsed.grid, dtype=float)
    if grid is not None and not (
        grid.ndim == 1 and grid.size and np.all(np.isfinite(grid)) and grid[0] >= 0 and np.all(np.diff(grid) > 0)
    ):
        raise ConfigError("grid: needs a non-empty, finite, non-negative and strictly increasing array")
    slugs = {law: _slug(law) for law in {*parsed.arrivals, *parsed.packets}}
    curves = {}
    for u, arrival, packet in itertools.product(parsed.thresholds, parsed.arrivals, parsed.packets):
        name = f"curve_u{float_str(u)}__{slugs[arrival]}__{slugs[packet]}.csv"
        if name in curves:
            raise ConfigError(f"{name}: two curves would write this file; list each threshold and law once")
        try:
            config = ExperimentConfig(
                arrival=ArrivalProcess(arrival, parsed.mode),
                packet=packet,
                battery=parsed.battery,
                threshold=u,
                replications=parsed.replications,
                seed=parsed.seed,
            )
        except ValueError as exc:
            key = "replications" if parsed.replications < 1 else "seed" if parsed.seed < 0 else "u"
            raise ConfigError(f"{key}: {exc}") from None
        u_prime = config.input_threshold
        try:
            mean, variance = (f(u_prime, config.arrival, packet) for f in (renewal_mean_tau, renewal_var_tau))
        except ArithmeticError:  # float overflow, or division by an underflowed 0
            mean = variance = math.inf
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise ConfigError(f"{name}: the asymptotic mean or variance of tau is not a finite float for these laws")
        if grid is None and not mean > 0.0:
            raise ConfigError(
                f"{name}: the default grid ends at 3 times the asymptotic mean of tau, {mean:.6g}, "
                "which is not positive; set a grid"
            )
        picked = formula if formula != "auto" else next(n for n, f in _FORMULAS.items() if f.fits(arrival, packet))
        if picked == "poisson_normal":
            terms = packet_sum_terms(u_prime, packet.mean, math.sqrt(packet.variance))
            if terms > _MAX_SERIES_TERMS:
                raise ConfigError(
                    f"{name}: poisson_normal needs {terms:.2g} series terms for packets {packet.config_str()}, "
                    f"more than the bound of {_MAX_SERIES_TERMS:.0e}"
                )
        curve_grid = np.linspace(0.0, 3.0 * mean, 201) if grid is None else grid
        curves[name] = _Curve(config, name, picked, curve_grid, mean, variance)
    return list(curves.values())


def _analytic_cdf(curve: _Curve, formula: str) -> np.ndarray:
    """``formula`` on the curve's grid at u' = ``ExperimentConfig.input_threshold``, made non-decreasing.

    Every formula's values are already clipped to [0, 1].
    """
    config = curve.config
    values = _FORMULAS[formula].cdf(config.input_threshold, curve.grid, config.arrival, config.packet)
    return np.maximum.accumulate(values)


def _slug(spec: DistributionSpec) -> str:
    """A law's part of its curves' CSV names."""
    return re.sub(r"[^a-z0-9.+-]+", "_", spec.config_str()).strip("_")


def _write_csv(path: Path, grid: np.ndarray, emp: Sequence[float], ana: Sequence[float]) -> None:
    columns = (np.asarray(c, dtype=float).tolist() for c in (grid, emp, ana))
    rows = map("{:.17g},{:.17g},{:.17g}\n".format, *columns)
    path.write_text("t,ecdf,analytic_cdf\n" + "".join(rows), newline="")


def run_experiment(parsed: ParsedConfig, out_dir: Path) -> dict:
    """Run every (arrival, packet, threshold) combination; write CSVs + manifest.

    Returns the manifest dict; manifest["breached"] is True when any curve's
    KS distance exceeds the configured tolerance. A refused config raises
    before ``out_dir`` exists. One ``Streams`` serves every curve, each
    ``run`` call one curve, in curve order; the output is the same for any
    worker count.
    """
    curves = _curves(parsed)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    breached = False
    with Streams(parsed.workers, [curve.config for curve in curves]) as pool:
        for curve in curves:
            config = curve.config
            ana = CdfCurve(curve.grid, _analytic_cdf(curve, curve.formula))
            summary, emp = summarize(run(config, pool=pool), ana.grid)
            ks = ks_distance(emp, ana)
            band = dkw_band(parsed.replications, 0.01)
            _write_csv(out_dir / curve.name, ana.grid, emp.values, ana.values)
            tol = parsed.ks_tolerance
            curve_breach = tol is not None and ks > tol
            breached = breached or curve_breach
            rows.append(
                {
                    "path": curve.name,
                    "arrivals": config.arrival.interarrival.config_str(),
                    "packets": config.packet.config_str(),
                    "battery": parsed.battery.config_str(),
                    "u": config.threshold,
                    "formula": curve.formula,
                    "ks_distance": ks,
                    "dkw_band_99": band,
                    "breach": curve_breach,
                    "mc_mean": summary.mean,
                    "mc_variance": summary.variance,
                    "analytic_mean": curve.mean,
                    "analytic_variance": curve.variance,
                }
            )
    manifest = {
        "tool_version": __version__,
        "seed": parsed.seed,
        "config": parsed.raw_text,
        "ks_tolerance": parsed.ks_tolerance,
        "breached": breached,
        "curves": rows,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return manifest


def compare_formulas(parsed: ParsedConfig) -> dict:
    """Max gap between the normal-approximation and exact Poisson series.

    Only defined for one arrival and one packet law that fit the exact
    formula; tabulated per configured threshold over the grid. The two curves
    are those ``run`` draws with ``formula = poisson_normal`` and ``formula =
    poisson_exact``, so a non-linear battery's gap is the one at u'. A forced
    ``formula`` is refused, since both series are drawn.
    """
    curves = _curves(parsed)
    if parsed.formula != "auto":
        raise ConfigError(f"formula: compare draws both Poisson series, so it takes auto, got {parsed.formula!r}")
    exact = _FORMULAS["poisson_exact"]
    if len(parsed.arrivals) != 1 or not isinstance(parsed.arrivals[0], exact.arrivals):
        raise ConfigError("arrivals: compare needs a single exponential law")
    if len(parsed.packets) != 1 or not isinstance(parsed.packets[0], exact.packets):
        raise ConfigError("packets: compare needs a single exponential law")
    rows = []
    for curve in curves:  # one per threshold
        approx, exact_cdf = (_analytic_cdf(curve, f) for f in ("poisson_normal", "poisson_exact"))
        rows.append({"u": curve.config.threshold, "max_abs_gap": float(np.max(np.abs(approx - exact_cdf)))})
    return {"tool_version": __version__, "rows": rows}


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="rechargetime",
        description="Recharge-time Monte-Carlo and analytic-curve experiment driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "compare"):
        p = sub.add_parser(cmd)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--replications", type=int, default=None, help="override config replications")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text(encoding="utf-8-sig")  # drops the byte-order mark Windows editors write
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        parsed = parse_config(text)
        if args.seed is not None:
            parsed.seed = args.seed
        if args.replications is not None:
            parsed.replications = args.replications
        if args.command == "compare":
            report = compare_formulas(parsed)
            for row in report["rows"]:
                print(f"u = {row['u']:g}: max |normal - exact| = {row['max_abs_gap']:.6g}")
            return 0
        manifest = run_experiment(parsed, args.out)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3
    for curve in manifest["curves"]:
        flag = " BREACH" if curve["breach"] else ""
        print(
            f"{curve['path']}: KS = {curve['ks_distance']:.4f} "
            f"(DKW 99% band {curve['dkw_band_99']:.4f}, formula {curve['formula']}){flag}"
        )
    return 2 if manifest["breached"] else 0


if __name__ == "__main__":
    sys.exit(main())
