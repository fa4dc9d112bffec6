"""Monte-Carlo estimation of the recharge (first passage) time.

Each replication replays an arrival stream against a battery model and
records the first epoch at which the stored energy strictly exceeds the
threshold. ``run`` is the one entry point, and one kernel serves it: it
advances a chunk of ``CHUNK`` replications as arrays. A single replication is
a run of one. Chunk c draws from its own stream, child c of SeedSequence(seed):
the residual first wait of every row, then [CHUNK, 64] blocks of
inter-arrivals and packets, drawn whole until every row has crossed. A
replication's draws thus depend only on the seed, its chunk and the block
index, not on the threshold, the battery, the worker count or the number of
replications. So results are bitwise reproducible for a given seed across
worker counts, configs that share a seed see common random numbers, and a
longer run starts with the taus of a shorter one.

Under the per-packet rule the battery checks each block of packets, and the
levels entering it, once (``check_step``); then every packet column steps
unchecked and in place (``advance``). ``run`` uses as many processes as its
``workers`` allow; the CLI passes one worker for experiments too small to
repay a pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional, Tuple

import numpy as np

from .battery import BatteryModel, LinearBattery, NonLinearBattery
from .distributions import DistributionSpec
from .renewal import ArrivalProcess
from .stats import CdfCurve, ecdf

__all__ = [
    "ExperimentConfig",
    "PassageSamples",
    "SummaryStats",
    "UnreachableThresholdError",
    "pool_size",
    "worker_pool",
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
    nonlinear_rule: str = PER_PACKET

    def __post_init__(self):
        cap = self.battery.capacity
        # the level is capped at capacity, so it can never exceed u = capacity
        if not 0.0 < self.threshold < cap:
            raise ValueError(f"threshold {self.threshold} outside (0, {cap})")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
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


# Replications per chunk. Fixed, so that a replication's draws depend only on
# the seed, its chunk and the block index, never on the worker count.
CHUNK = 256

# Fixed draw-block size. It must not depend on the threshold or the battery:
# paired runs that share a seed (e.g. tau(u1) vs tau(u2), linear vs non-linear)
# rely on the k-th inter-arrival and k-th packet being identical draws.
_BLOCK = 64


def _packet_path(battery: NonLinearBattery, level: np.ndarray, packets: np.ndarray, u: float) -> np.ndarray:
    """Levels after each packet of a block, one in-place vector step per packet.

    The incoming levels and the whole block are checked once, then each column
    of a contiguous transposed copy steps unchecked. The level never falls, so
    the block stops early, with fewer columns, once every row is above u.
    """
    level, packets = battery.check_step(level, packets)
    columns = np.ascontiguousarray(packets.T)
    path = np.empty_like(columns)
    for j, x in enumerate(columns):
        level = battery.advance(level, x, path[j])
        if level.min() > u:
            return path[: j + 1].T
    return path.T


def _simulate_chunk(config: ExperimentConfig, rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """Passage times of the first ``rows`` replications of a chunk of ``width``.

    The chunk draws the residual wait of all ``width`` rows, then [width, 64]
    blocks of inter-arrivals and packets until each of its first ``rows`` rows
    has crossed. Blocks are drawn whole, for crossed rows too, so every row's
    draws depend only on the stream and the block index.
    """
    battery = config.battery
    u = config.threshold
    linear = isinstance(battery, LinearBattery)
    per_packet = not linear and config.nonlinear_rule == PER_PACKET
    if not linear and config.nonlinear_rule == CONTINUOUS:
        # crossing in stored units <=> raw cumulative sum crossing the
        # transformed threshold, which is a linear problem
        u = battery.input_for_level(u)

    arr = config.arrival
    t = arr.residual_sample(rng, width)[:rows]  # epoch of each row's next packet
    level = np.zeros(rows)
    taus = np.empty(rows)
    active = np.arange(rows)  # rows not yet crossed; t and level follow them
    pick = slice(rows)  # the same rows of a drawn block; a view while all are active
    for _ in range(0, _MAX_PACKETS, _BLOCK):
        gaps = arr.interarrival.sample(rng, (width, _BLOCK))[pick]
        packets = config.packet.sample(rng, (width, _BLOCK))[pick]
        if per_packet:
            path = _packet_path(battery, level, packets, u)
        else:
            # no capacity clip: u < capacity, so a clip would move no crossing
            # and leave every row still below u as it is
            path = np.cumsum(packets, axis=1, out=packets)
            path += level[:, None]
        over = path > u
        hit = over.any(axis=1)
        if hit.any():
            crossed = np.flatnonzero(hit)
            first = over[crossed].argmax(axis=1)
            since_t = np.zeros((crossed.size, _BLOCK))  # each packet's epoch less t
            np.cumsum(gaps[crossed, :-1], axis=1, out=since_t[:, 1:])
            taus[active[crossed]] = since_t[np.arange(crossed.size), first] + t[crossed]
            left = ~hit
            if not left.any():
                return taus
            active = pick = active[left]
            level, t, gaps = path[left, -1], t[left], gaps[left]
        else:
            level = path[:, -1]
        t = t + gaps.sum(axis=1)
    raise UnreachableThresholdError(
        f"no crossing after {_MAX_PACKETS} packets for config: {config.fingerprint()}"
    )


def _n_chunks(replications: int) -> int:
    return -(-replications // CHUNK)


def _run_range(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    """Passage times of chunks [start, stop); chunk c draws from child c of the seed.

    The last chunk of the run is cut to the replications left but draws as
    a full chunk, so a longer run starts with the taus of a shorter one.
    """
    n = config.replications
    children = np.random.SeedSequence(config.seed).spawn(stop)[start:]
    return np.concatenate(
        [
            _simulate_chunk(config, np.random.default_rng(child), min(CHUNK, n - c * CHUNK), CHUNK)
            for c, child in zip(range(start, stop), children)
        ]
    )


def pool_size(workers: int, replications: int) -> int:
    """Processes worth starting: no more than the workers, the chunks or the CPUs."""
    return max(1, min(workers, _n_chunks(replications), os.cpu_count() or 1))


@contextmanager
def worker_pool(workers: int, replications: int) -> Iterator[Optional[ProcessPoolExecutor]]:
    """A process pool for runs of ``replications``; None when one process suffices.

    Open it once and pass it to every ``run`` that shares those settings.
    """
    size = pool_size(workers, replications)
    if size < 2:
        yield None
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield pool


def run(
    config: ExperimentConfig, workers: int = 1, pool: Optional[ProcessPoolExecutor] = None
) -> PassageSamples:
    """Run all replications; output is identical for any worker count.

    ``pool`` is an open ``worker_pool`` shared across runs. Without one, a run
    that can use more than one process opens its own for the call.
    """
    n = config.replications
    if pool is None and pool_size(workers, n) > 1:
        with worker_pool(workers, n) as pool:
            return run(config, workers, pool)
    chunks = _n_chunks(n)
    if pool is None:
        taus = _run_range(config, 0, chunks)
    else:
        bounds = np.linspace(0, chunks, pool_size(workers, n) + 1).astype(int)
        taus = np.concatenate(list(pool.map(_run_range, repeat(config), bounds[:-1], bounds[1:])))
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
