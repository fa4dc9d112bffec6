"""Monte-Carlo estimation of the recharge (first passage) time.

Each replication replays an arrival stream against a battery model and
records the first epoch at which the stored energy strictly exceeds the
threshold. ``run`` is the one entry point, and one kernel serves it: it
advances a chunk of ``CHUNK`` replications as arrays. A single replication is
a run of one. Chunk c draws from its own generator, child c of
SeedSequence(seed): the residual first wait of every row, then [CHUNK, 64]
blocks of inter-arrivals and packets, drawn whole until every row has crossed
the top threshold. A
replication's draws thus depend only on the seed, its chunk and the block
index, not on the threshold, the battery, the worker count or the number of
replications. So results are bitwise reproducible for a given seed across
worker counts, configs that share a seed see common random numbers, and a
longer run starts with the taus of a shorter one.

Each drawn block of packets goes through one ``battery.path`` call, which
checks it once, before the levels take it in, and returns the level after
each packet by the battery's own rule: a running sum for a linear battery,
one step per packet for a non-linear one. The kernel does not know which rule
it runs. The continuous model, the tanh law applied to the cumulative input,
needs no path of its own: its taus are those of an uncapped linear battery at
u' = ``battery.input_for_level(u)``, same seed.

A stream is the configs that differ only in their threshold: they draw the
same values and their levels follow the same paths. Under both rules a level
never falls, in floating point too (a linear level adds non-negative packets;
a per-packet step adds eta(U) X >= 0 and caps at umax >= U), so the
thresholds a row has crossed by a block's end are a prefix of the sorted
thresholds. The kernel thus takes a stream's ascending levels and finds the
passage times of all of them in one pass, each bit for bit what a run at that
level alone gives: one step per block reads every (row, level) pair the block
passes and the first packet above each.

``workers`` is an upper bound, and one stream plan serves the CLI and library
callers alike: ``Streams`` groups a ``worker_pool``'s configs into streams
once and decides there whether a pool pays, how many processes it gets and
how each stream's chunks are split over them. ``worker_pool`` only opens the
pool the plan asks for; ``run`` without one plans for its own config alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .battery import BatteryModel
from .distributions import DistributionSpec
from .renewal import ArrivalProcess
from .stats import CdfCurve, ecdf

__all__ = [
    "ExperimentConfig",
    "PassageSamples",
    "Streams",
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

    @cached_property
    def expected_packets(self) -> float:
        """Estimated packets that all the replications draw together.

        A replication needs about 1 + u' / Xbar packets, with u' =
        ``input_threshold`` the raw input that lifts an empty battery to u
        under the continuous model (u itself for a linear battery). That is
        Wald's identity with the overshoot left out. It is an estimate, not a
        bound; on small packets it matches the per-packet rule to 1e-4.
        """
        return self.replications * (1.0 + self.input_threshold / self.packet.mean)

    @cached_property
    def input_threshold(self) -> float:
        """u' = ``battery.input_for_level(threshold)``, the linear threshold of the continuous model."""
        return self.battery.input_for_level(self.threshold)


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


def _simulate_chunk(config: ExperimentConfig, levels: np.ndarray, rng: np.random.Generator, rows: int) -> np.ndarray:
    """[levels, rows] passage times of the first ``rows`` replications of a chunk.

    ``levels`` ascend. The chunk draws the residual wait of all ``CHUNK``
    rows, then [CHUNK, 64] blocks of inter-arrivals and packets until each of
    its first ``rows`` rows is above the top level. Blocks are drawn whole,
    for finished rows too, so every row's draws depend only on ``rng`` and
    the block index. ``battery.path`` checks each block's packets and gives
    the active rows' level after each one, up to a column where every row is
    above the top. A row's level never falls, so the levels it has crossed
    by a block's end are a prefix of ``levels``, read off its last column;
    the block passes those past the prefix it had crossed before.
    """
    top = levels[-1]
    arr = config.arrival
    t = arr.residual_sample(rng, CHUNK)[:rows]  # epoch of each row's next packet
    level = np.zeros(rows)
    taus = np.empty((levels.size, rows))
    ks = np.arange(levels.size)
    passed = np.zeros(rows, dtype=np.intp)  # levels each active row has crossed
    active = np.arange(rows)  # rows not yet above the top; t, level and passed follow them
    pick = slice(rows)  # the same rows of a drawn block; a view while all are active
    for _ in range(0, _MAX_PACKETS, _BLOCK):
        gaps = arr.interarrival.sample(rng, (CHUNK, _BLOCK))[pick]
        path = config.battery.path(level, config.packet.sample(rng, (CHUNK, _BLOCK))[pick], top)
        now = np.searchsorted(levels, path[:, -1])  # levels strictly below each row's last level
        crossed = np.flatnonzero(now > passed)
        if crossed.size:
            since_t = np.zeros((crossed.size, _BLOCK))  # each packet's epoch less t
            np.cumsum(gaps[crossed, :-1], axis=1, out=since_t[:, 1:])
            # each (row of crossed, level) pair the block passes
            new, k = np.nonzero((passed[crossed, None] <= ks) & (ks < now[crossed, None]))
            rows_k = crossed[new]
            first = (path[rows_k] > levels[k, None]).argmax(axis=1)
            taus[k, active[rows_k]] = since_t[new, first] + t[rows_k]
            left = now < levels.size
            if not left.any():
                return taus
            active = pick = active[left]
            level, t, gaps, passed = path[left, -1], t[left], gaps[left], now[left]
        else:
            level = path[:, -1]
        t = t + gaps.sum(axis=1)
    raise UnreachableThresholdError(
        f"no crossing after {_MAX_PACKETS} packets for config: {config!r}"
    )


def _n_chunks(replications: int) -> int:
    return -(-replications // CHUNK)


def _run_range(config: ExperimentConfig, levels: np.ndarray, start: int, stop: int) -> np.ndarray:
    """[levels, rows] passage times of chunks [start, stop); chunk c draws from child c of the seed.

    The last chunk of the run is cut to the replications left but draws as
    a full chunk, so a longer run starts with the taus of a shorter one.
    """
    n = config.replications
    children = np.random.SeedSequence(config.seed).spawn(stop)[start:]
    return np.concatenate(
        [
            _simulate_chunk(config, levels, np.random.default_rng(child), min(CHUNK, n - c * CHUNK))
            for c, child in zip(range(start, stop), children)
        ],
        axis=1,
    )


def pool_size(workers: int, replications: int) -> int:
    """Processes worth starting: no more than the workers, the chunks or the CPUs."""
    return max(1, min(workers, _n_chunks(replications), os.cpu_count() or 1))


def _stream(config: ExperimentConfig) -> tuple:
    """What fixes a config's draws and level paths: all of it but the threshold."""
    return config.arrival, config.packet, config.battery, config.replications, config.seed


class Streams:
    """The stream plan of a ``worker_pool``'s configs, and the taus of its streams.

    A stream is the configs that differ only in their threshold. The plan
    gives ``processes`` = ``pool_size`` when the streams' top thresholds
    expect ``_POOL_BREAK_EVEN`` packets in all, where a pool starts to pay,
    and 1 otherwise; each stream's chunks are split over them. One rule
    reads every config: a config whose taus are not held simulates its own
    threshold together with every threshold of its stream not simulated
    yet, in one pass, and holds the others' taus until their own ``run``
    reads them, once.
    """

    def __init__(self, workers: int, configs: Sequence[ExperimentConfig]):
        groups = {}  # stream -> its configs
        for c in configs:
            groups.setdefault(_stream(c), []).append(c)
        top = sum(max(c.expected_packets for c in group) for group in groups.values())
        size = pool_size(workers, max(c.replications for c in configs))
        self.processes = size if top >= _POOL_BREAK_EVEN else 1
        self.executor: Optional[ProcessPoolExecutor] = None  # the pool ``worker_pool`` opens, if any
        self._pending = {key: {c.threshold for c in group} for key, group in groups.items()}  # not simulated yet
        self._held = {}  # (stream, threshold) -> taus simulated but not yet read

    def _simulate(self, config: ExperimentConfig, levels: np.ndarray) -> np.ndarray:
        """[levels, replications] passage times of ``config``'s stream, its chunks split over the processes."""
        chunks = _n_chunks(config.replications)
        bounds = np.linspace(0, chunks, min(self.processes, chunks) + 1).astype(int)
        run_ranges = map if self.executor is None else self.executor.map
        parts = run_ranges(_run_range, repeat(config), repeat(levels), bounds[:-1], bounds[1:])
        return np.concatenate(list(parts), axis=1)

    def taus(self, config: ExperimentConfig) -> np.ndarray:
        """``config``'s taus, held or else simulated with the thresholds its stream has not simulated yet."""
        key = _stream(config)
        if (key, config.threshold) not in self._held:
            levels = sorted({*self._pending.pop(key, ()), config.threshold})
            self._held.update(zip([(key, u) for u in levels], self._simulate(config, np.array(levels))))
        return self._held.pop((key, config.threshold))


@contextmanager
def worker_pool(workers: int, configs: Sequence[ExperimentConfig]) -> Iterator[Streams]:
    """The ``Streams`` of ``configs``, with the process pool its plan asks for, if any.

    Open it once and pass it to the ``run`` of each config. Once the block
    exits, the streams drop the shut pool and simulate in this process.
    """
    streams = Streams(workers, configs)
    pool = ProcessPoolExecutor(max_workers=streams.processes) if streams.processes > 1 else nullcontext()
    with pool as streams.executor:
        try:
            yield streams
        finally:
            streams.executor = None


def run(config: ExperimentConfig, workers: int = 1, pool: Optional[Streams] = None) -> PassageSamples:
    """Run all replications; output is identical for any worker count.

    ``pool`` is an open ``worker_pool`` shared across runs; every config
    reads its taus by the one rule of ``Streams.taus``, and the pool's plan,
    not ``workers``, sets the processes. Without one, the run opens its
    own for the call, planned for ``config`` alone.
    """
    if pool is None:
        with worker_pool(workers, [config]) as pool:
            return run(config, pool=pool)
    return PassageSamples(taus=pool.taus(config))


def summarize(samples: PassageSamples, time_grid) -> Tuple[SummaryStats, CdfCurve]:
    """Point estimates plus the empirical CDF on the grid."""
    taus = samples.taus
    if taus.size == 0:
        raise ValueError("no samples")
    var = float(np.var(taus, ddof=1)) if taus.size > 1 else 0.0
    return SummaryStats(mean=float(np.mean(taus)), variance=var), ecdf(taus, time_grid)
