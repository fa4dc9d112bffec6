"""Monte-Carlo estimation of the recharge (first passage) time.

Each replication replays an arrival stream against a battery model and
records the first epoch at which the stored energy strictly exceeds the
threshold. Replications use counter-derived random substreams
(SeedSequence(seed).spawn), so results are bitwise reproducible for a given
seed regardless of how many workers run them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .battery import BatteryModel, LinearBattery
from .distributions import DistributionSpec
from .renewal import ArrivalProcess, Mode
from .stats import CdfCurve, ecdf

__all__ = [
    "ExperimentConfig",
    "PassageSamples",
    "SummaryStats",
    "UnreachableThresholdError",
    "simulate_once",
    "run",
    "summarize",
]

_MAX_PACKETS = 10**9

# per-packet: the discrete update U <- U + eta(U) * X
# continuous:  accumulate raw input and apply the tanh transform
PER_PACKET = "per_packet"
CONTINUOUS = "continuous"


class UnreachableThresholdError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    arrival: ArrivalProcess
    packet: DistributionSpec
    battery: BatteryModel
    threshold: float
    replications: int = 2000
    seed: int = 0
    time_grid: Optional[Tuple[float, ...]] = None
    nonlinear_rule: str = PER_PACKET

    def __post_init__(self):
        cap = self.battery.capacity
        # the level is capped at capacity, so it can never exceed u = capacity
        if not 0.0 < self.threshold < cap:
            raise ValueError(f"threshold {self.threshold} outside (0, {cap})")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.time_grid is not None:
            g = np.asarray(self.time_grid, dtype=float)
            if g.size and (np.any(g < 0) or np.any(np.diff(g) <= 0)):
                raise ValueError("time_grid must be non-negative and strictly increasing")
        if self.nonlinear_rule not in (PER_PACKET, CONTINUOUS):
            raise ValueError(f"unknown nonlinear rule {self.nonlinear_rule!r}")

    def fingerprint(self) -> str:
        return (
            f"arrivals=[{self.arrival.interarrival.config_str()}] mode={self.arrival.mode.value} "
            f"packets=[{self.packet.config_str()}] battery=[{self.battery.config_str()}] "
            f"u={self.threshold:g} reps={self.replications} rule={self.nonlinear_rule}"
        )


@dataclass(frozen=True)
class PassageSamples:
    taus: np.ndarray
    fingerprint: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "taus", np.asarray(self.taus, dtype=float))


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    variance: float  # unbiased
    stderr: float


# Fixed draw-block size. It must not depend on the threshold or the battery:
# paired runs that share a seed (e.g. tau(u1) vs tau(u2), linear vs non-linear)
# rely on the k-th inter-arrival and k-th packet being identical draws.
_BLOCK = 64


def simulate_once(config: ExperimentConfig, rng: np.random.Generator) -> float:
    """One replication: first arrival epoch at which stored energy exceeds u.

    The stored energy is a pure jump process, so the passage time always
    coincides with an arrival epoch. Random draws follow a fixed schedule
    (residual wait, then alternating blocks of inter-arrivals and packets),
    so two configs sharing a seed see identical underlying streams.
    """
    battery = config.battery
    u = config.threshold
    # continuous rule: crossing in stored units <=> raw cumulative sum
    # crossing the transformed threshold, which is a linear problem
    if config.nonlinear_rule == CONTINUOUS or isinstance(battery, LinearBattery):
        linear = True
        u_eff = battery.input_for_level(u) if config.nonlinear_rule == CONTINUOUS else u
        cap = battery.capacity if isinstance(battery, LinearBattery) else np.inf
    else:
        linear = False
        u_eff = u
        cap = battery.capacity

    arr = config.arrival
    if arr.mode is Mode.EQUILIBRIUM:
        t_next = float(arr.residual_sample(rng))
    else:
        t_next = 0.0

    m = _BLOCK
    U = 0.0
    consumed = 0
    while consumed < _MAX_PACKETS:
        gaps = np.asarray(arr.interarrival.sample(rng, m), dtype=float)
        packets = np.asarray(config.packet.sample(rng, m), dtype=float)
        epochs = t_next + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
        if linear:
            path = np.minimum(U + np.cumsum(packets), cap)
            crossed = np.nonzero(path > u_eff)[0]
            if crossed.size:
                return float(epochs[crossed[0]])
            U = path[-1]
        else:
            for j in range(m):
                U = min(U + battery.efficiency(U) * packets[j], cap)
                if U > u_eff:
                    return float(epochs[j])
        t_next = t_next + float(np.sum(gaps))
        consumed += m
    raise UnreachableThresholdError(
        f"no crossing after {_MAX_PACKETS} packets for config: {config.fingerprint()}"
    )


def _run_range(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    out = np.empty(stop - start)
    for i in range(start, stop):
        out[i - start] = simulate_once(config, np.random.default_rng(children[i]))
    return out


def run(config: ExperimentConfig, workers: int = 1) -> PassageSamples:
    """Run all replications; output is identical for any worker count."""
    n = config.replications
    if workers <= 1 or n < 2 * workers:
        taus = _run_range(config, 0, n)
    else:
        bounds = np.linspace(0, n, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(_run_range, [config] * workers, bounds[:-1], bounds[1:])
            )
        taus = np.concatenate(parts)
    return PassageSamples(taus=taus, fingerprint=config.fingerprint(), seed=config.seed)


def summarize(samples: PassageSamples, time_grid) -> Tuple[SummaryStats, CdfCurve]:
    """Point estimates plus the empirical CDF on the grid."""
    taus = samples.taus
    if taus.size == 0:
        raise ValueError("no samples")
    n = int(taus.size)
    mean = float(np.mean(taus))
    var = float(np.var(taus, ddof=1)) if n > 1 else 0.0
    stderr = float(np.sqrt(var / n))
    return SummaryStats(n=n, mean=mean, variance=var, stderr=stderr), ecdf(taus, time_grid)
