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

Each drawn block of packets is checked once, before the levels take it in.
The battery type picks the path: a linear battery's levels are a running sum
of its packets, and a non-linear one steps per packet, U <- U + eta(U) X, each
column unchecked and in place (``advance``). The continuous model, the tanh
law applied to the cumulative input, needs no path of its own: its taus are
those of ``LinearBattery()`` at ``battery.input_for_level(u)``, same seed.
``workers`` is an upper bound, and one pool policy serves the CLI and library
callers alike: ``worker_pool`` opens a pool only when ``pool_size`` allows two
processes or more and its configs' ``expected_packets`` reach
``_POOL_BREAK_EVEN``, where a pool starts to pay; ``run`` applies the same
rule to its own config.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .battery import BatteryModel, NonLinearBattery, check_packets
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
# Expected packets, summed over the runs that share a pool, below which they
# run in this process. Timed on 2 vCPUs, a pool of two broke even near 2e6
# packets under the linear rule and near 5e5 under the per-packet rule, whose
# packets cost about 4x more; 1e6 bounds the wall time lost either way to
# about 1.3x.
_POOL_BREAK_EVEN = 10**6
# Expected packets, summed over its replications, that one config may draw.
_PACKET_BUDGET = 10**9


class UnreachableThresholdError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: its laws, battery, threshold, replications and seed.

    Construction refuses, in this order, replications < 1, a seed < 0, a
    threshold outside (0, capacity) and more than
    ``_PACKET_BUDGET`` ``expected_packets``, each with a ValueError before
    anything runs.
    """

    arrival: ArrivalProcess
    packet: DistributionSpec
    battery: BatteryModel
    threshold: float
    replications: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        cap = self.battery.capacity
        # the level is capped at capacity, so it can never exceed u = capacity
        if not 0.0 < self.threshold < cap:
            raise ValueError(f"threshold {self.threshold} outside (0, {cap})")
        work = self.expected_packets
        if work > _PACKET_BUDGET:
            raise ValueError(
                f"u = {self.threshold:g} with packet mean {self.packet.mean:g} needs about "
                f"{work:.2g} packets over {self.replications} replications, more than the "
                f"budget of {_PACKET_BUDGET:.0e}"
            )

    @property
    def expected_packets(self) -> float:
        """Estimated packets that all the replications draw together.

        A replication needs about 1 + x(u) / Xbar packets, with x(u) =
        ``battery.input_for_level(u)`` the raw input that lifts an empty
        battery to u under the continuous model (u itself for a linear
        battery). That is Wald's identity with the overshoot left out. It is
        an estimate, not a bound; on small packets it matches the per-packet
        rule to 1e-4.
        """
        x_u = self.battery.input_for_level(self.threshold)
        return self.replications * (1.0 + x_u / self.packet.mean)


@dataclass(frozen=True)
class PassageSamples:
    taus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taus", np.asarray(self.taus, dtype=float))


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    variance: float  # unbiased


# Replications per chunk. Fixed, so that a replication's draws depend only on
# the seed, its chunk and the block index, never on the worker count.
CHUNK = 256

# Fixed draw-block size. It must not depend on the threshold or the battery:
# paired runs that share a seed (e.g. tau(u1) vs tau(u2), linear vs non-linear)
# rely on the k-th inter-arrival and k-th packet being identical draws.
_BLOCK = 64


def _packet_path(battery: NonLinearBattery, level: np.ndarray, packets: np.ndarray, u: float) -> np.ndarray:
    """Levels after each packet of a checked block, one in-place vector step per packet.

    Each column of a contiguous transposed copy steps unchecked. The level
    never falls, so the block stops early, with fewer columns, once every row
    is above u.
    """
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
    per_packet = isinstance(battery, NonLinearBattery)
    arr = config.arrival
    t = arr.residual_sample(rng, width)[:rows]  # epoch of each row's next packet
    level = np.zeros(rows)
    taus = np.empty(rows)
    active = np.arange(rows)  # rows not yet crossed; t and level follow them
    pick = slice(rows)  # the same rows of a drawn block; a view while all are active
    for _ in range(0, _MAX_PACKETS, _BLOCK):
        gaps = arr.interarrival.sample(rng, (width, _BLOCK))[pick]
        packets = check_packets(config.packet.sample(rng, (width, _BLOCK))[pick])
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
        f"no crossing after {_MAX_PACKETS} packets for config: {config!r}"
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
def worker_pool(workers: int, configs: Sequence[ExperimentConfig]) -> Iterator[Optional[ProcessPoolExecutor]]:
    """A process pool for the runs of ``configs``; None when one process suffices.

    One process suffices when ``pool_size`` allows fewer than two or when the
    configs expect fewer than ``_POOL_BREAK_EVEN`` packets in all. Open it
    once and pass it to the ``run`` of each config.
    """
    size = pool_size(workers, max(c.replications for c in configs))
    if size < 2 or sum(c.expected_packets for c in configs) < _POOL_BREAK_EVEN:
        yield None
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield pool


def run(
    config: ExperimentConfig, workers: int = 1, pool: Optional[ProcessPoolExecutor] = None
) -> PassageSamples:
    """Run all replications; output is identical for any worker count.

    ``pool`` is an open ``worker_pool`` shared across runs. Without one, the
    run opens its own for the call when ``worker_pool`` finds that one pays.
    """
    if pool is None:
        with worker_pool(workers, [config]) as pool:
            if pool is not None:
                return run(config, workers, pool)
    n = config.replications
    chunks = _n_chunks(n)
    if pool is None:
        taus = _run_range(config, 0, chunks)
    else:
        bounds = np.linspace(0, chunks, pool_size(workers, n) + 1).astype(int)
        taus = np.concatenate(list(pool.map(_run_range, repeat(config), bounds[:-1], bounds[1:])))
    return PassageSamples(taus=taus)


def summarize(samples: PassageSamples, time_grid) -> Tuple[SummaryStats, CdfCurve]:
    """Point estimates plus the empirical CDF on the grid."""
    taus = samples.taus
    if taus.size == 0:
        raise ValueError("no samples")
    var = float(np.var(taus, ddof=1)) if taus.size > 1 else 0.0
    return SummaryStats(mean=float(np.mean(taus)), variance=var), ecdf(taus, time_grid)
