"""Monte-Carlo estimation of the recharge (first passage) time.

Each replication replays an arrival stream against a battery model and
records the first epoch at which the stored energy strictly exceeds the
threshold. ``run`` is the one entry point, and one kernel serves it: it
advances chunks of ``CHUNK`` replications as arrays. A single replication is
a run of one. Chunk c draws from its own generator, child c of
SeedSequence(seed): the residual first wait of every row, then [CHUNK, 64]
blocks of inter-arrivals and packets, drawn whole. A range of chunks steps
them in groups of up to ``_GROUP``: each chunk of a group draws its blocks
into its own rows of three [group CHUNK, 64] planes that the range
allocates once and every block of its chunks reuses, with each law's
``sample(rng, out=)``, the same draws bit for bit as a sized ``sample``; so
the block loop allocates nothing of block size and does not page-fault its
memory back each block. The rows the run keeps step through every block,
crossed or not, until all of a chunk's are above the top threshold; from
then on that chunk draws no more, and its rows step on with its last block
while the rest of its group draws: they are above every level already and
a level never falls, so they pass none. A replication's draws thus depend
only on the seed, its chunk and the block index, not on the group, the
threshold, the battery, the worker count or the number of replications. So
results are bitwise reproducible for a given seed across worker counts,
configs that share a seed see common random numbers, and a longer run
starts with the taus of a shorter one.

Each block of a group's kept packets is checked once, right after the draw
(a negative or NaN packet is a ValueError), and then goes through one
``battery.path`` call, which writes the level after each packet into the
third plane by the battery's own rule. The kernel reads that plane as
[64, rows], and both rules write the path there as [k, rows], one packet
column into one contiguous row at a time: a running sum
(``battery.running_sum``, one contiguous add per column) for a linear
battery, one step per packet for a non-linear one. One call steps up to 1024
rows, so each rule pays its per-column call overhead once for four chunks.
The kernel does not know which rule it runs. Once the path is read, the same
[64, rows] plane takes the gaps' running sum the same way, over only the gaps
up to the block's last crossing packet, which dates the crossings: a block
that passes no pair sums none. The continuous model, the tanh law applied to
the cumulative input, needs no path of its own: its taus are those of an
uncapped linear battery at u' = ``battery.input_for_level(u)``, same seed.

A stream is the configs that differ only in their threshold: they draw the
same values and their levels follow the same paths. The kernel takes a
stream's ascending levels and finds the passage times of all of them in one
pass, each bit for bit what a run at that level alone gives, by one count.
It relies on one contract of ``battery.path``: on the packets >= 0 that the
check lets through, a row's level never falls, in floating point too (a
linear level adds them; a per-packet step adds eta(U) X >= 0 and caps at
umax >= U). So the number of a block's path values at or below a level is
the index of the packet that lifts the row above it, and the block passes
that level if the index is inside the path and the row began the block at or
below the level.

``workers`` is an upper bound, and one stream plan serves the CLI and library
callers alike: ``Streams`` groups its configs into streams once and decides
there whether a pool pays, how many processes it gets and how each stream's
chunks are split over them. Used as a context manager, it opens the pool its
plan asks for and shuts it on exit; ``run`` without one plans for its own
config alone. The pool's modules (``concurrent.futures`` and
``multiprocessing``) load only when a plan opens one, so a run below the
break-even never imports them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .battery import BatteryModel, running_sum
from .distributions import DistributionSpec
from .renewal import ArrivalProcess
from .stats import CdfCurve, ecdf

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "ExperimentConfig",
    "PassageSamples",
    "Streams",
    "SummaryStats",
    "UnreachableThresholdError",
    "run",
    "summarize",
]

# Expected packets, summed over the runs that share a pool, below which they
# run in this process. Timed on 2 vCPUs, a pool of two broke even near 2e6
# packets under the linear rule and near 5e5 under the per-packet rule; 1e6
# bounds the wall time lost either way to about 1.3x. That sweep predates
# stepping chunks four at a time and the column running sums: engine CPU
# (draws included) per stepped packet reads 16-19 ns under the linear rule
# and about 19 ns under the per-packet rule, and per expected packet 22-26 ns
# linear and about 56 ns per-packet, 2.1-2.5x (ROADMAP item 8).
_POOL_BREAK_EVEN = 10**6
# Expected packets that one config may draw, counted over the whole chunks of
# ``CHUNK`` rows the kernel steps, however few of their rows the run keeps.
# It is also the kernel's limit per row: no row may draw more packets than its
# whole run may expect, so a row still below the top after this many raises
# ``UnreachableThresholdError``.
_PACKET_BUDGET = 10**9


class UnreachableThresholdError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: its laws, battery, threshold, replications and seed.

    Construction refuses, in this order, replications that are not an
    integer or are below 1, a seed that is not an integer or is below 0, a
    threshold outside (0, capacity) and more than ``_PACKET_BUDGET``
    expected packets over the rows its chunks draw, each with a ValueError
    before anything runs. numpy integers are integers here; a float of
    integral value such as 1e3 is not.
    """

    arrival: ArrivalProcess
    packet: DistributionSpec
    battery: BatteryModel
    threshold: float
    replications: int = 2000
    seed: int = 0

    def __post_init__(self):
        for field, least in (("replications", 1), ("seed", 0)):
            value = getattr(self, field)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{field} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{field} must be >= {least}, got {value}")
        cap = self.battery.capacity
        # the level is capped at capacity, so it can never exceed u = capacity
        if not 0.0 < self.threshold < cap:
            raise ValueError(f"threshold {self.threshold} outside (0, {cap})")
        rows = _n_chunks(self.replications) * CHUNK
        work = rows * self.expected_packets / self.replications
        if work > _PACKET_BUDGET:
            raise ValueError(
                f"u = {self.threshold:g} with packet mean {self.packet.mean:g} draws about "
                f"{work:.2g} packets over {rows} rows (replications = {self.replications}, drawn in "
                f"chunks of {CHUNK}), more than the budget of {_PACKET_BUDGET:.0e}"
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

# Chunks a range steps together. Each keeps its own generator and draws, so
# this sets only how many rows one ``battery.path`` call steps: 1024, where
# the per-packet rule's per-column call overhead is spread over four times
# the rows of one chunk.
_GROUP = 4


def _n_chunks(replications: int) -> int:
    return -(-replications // CHUNK)


def _run_range(config: ExperimentConfig, levels: np.ndarray, start: int, stop: int) -> np.ndarray:
    """[levels, rows] passage times of chunks [start, stop); chunk c draws from child c of the seed.

    ``levels`` ascend. The range allocates its three planes first, for its
    largest group, and then the taus; each group writes its crossings into
    its own columns of the taus. Only the last chunk of a run is cut, so the
    kept rows of a group are its first ``rows``, and each block steps them
    together as a [rows, 64] view. A chunk reads its kept rows' levels before
    each block and draws into its own rows [c CHUNK, (c + 1) CHUNK) of the
    gap and packet planes while any is at or below the top.

    Each block's kept packets are checked right after the draw, so ``path``
    steps packets >= 0 only and a row's level never falls. For each
    [level, row] the count of its path values at or below the level is thus
    the index f of the packet that lifts the row above it: a
    [levels, k, rows] comparison summed over its middle axis. The block
    passes the pairs whose f is inside the path and whose row began the
    block at or below the level. Once the path is read, its last row copied
    out as the levels, the third plane takes the ``running_sum`` of the gap
    plane's first m columns, m the largest f of a passed pair, so packet
    f > 0 of a row lands at the carried epoch plus the row's first f gaps,
    the bits of ``np.cumsum`` along the row. The gap plane keeps its draws,
    and their row sums carry the epoch.
    """
    top = levels[-1]
    arr = config.arrival
    n = config.replications
    buffers = np.empty((3, min(_GROUP, stop - start) * CHUNK, _BLOCK))
    taus = np.empty((levels.size, min(n, stop * CHUNK) - start * CHUNK))
    for lo in range(start, stop, _GROUP):
        chunks = range(lo, min(lo + _GROUP, stop))
        # child c of SeedSequence(seed), built from its spawn key without spawning the chunks before it
        rngs = [np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(c,))) for c in chunks]
        rows = min(n, chunks.stop * CHUNK) - lo * CHUNK
        out = taus[:, (lo - start) * CHUNK :]  # the taus from the group's first column on
        t = np.concatenate([arr.residual_sample(rng, CHUNK) for rng in rngs])[:rows]  # epoch of each row's next packet
        level = np.zeros(rows)
        gaps, packets = buffers[:2, :rows]
        # the third plane read as [64, rows]: the path, then the gaps' sums
        plane = buffers[2, :rows].reshape(_BLOCK, rows)
        for _ in range(0, _PACKET_BUDGET, _BLOCK):
            for c, rng in enumerate(rngs):
                if level[c * CHUNK : (c + 1) * CHUNK].min() <= top:
                    arr.interarrival.sample(rng, out=buffers[0, c * CHUNK : (c + 1) * CHUNK])
                    config.packet.sample(rng, out=buffers[1, c * CHUNK : (c + 1) * CHUNK])
            if not packets.min() >= 0.0:  # NaN fails it too
                raise ValueError("packet energy must be >= 0")
            path = config.battery.path(level, packets, top, plane)
            k = len(path)  # the path may stop early, before the block's last packet
            # [levels, rows] index of the packet that lifts each row above each level; at most 64,
            # so it is summed in int8, which numpy adds about 3x faster than the intp of count_nonzero
            first = (path <= levels[:, None, None]).sum(axis=1, dtype=np.int8)
            i, r = np.nonzero((first < k) & (level <= levels[:, None]))
            f = first[i, r]
            np.copyto(level, path[-1])  # the path is read; the third plane takes the running sum of the gaps
            m = f.max(initial=0)  # the crossings read the first m gaps; a block that passes no pair sums none
            running_sum(gaps[:, :m], plane)
            # the whole plane, not the m rows: at f = 0, f - 1 = -1 must index
            out[i, r] = t[r] + np.where(f > 0, plane[f - 1, r], 0.0)
            if level.min() > top:
                break
            t += gaps.sum(axis=1)
        else:
            raise UnreachableThresholdError(f"no crossing after {_PACKET_BUDGET} packets for config: {config!r}")
    return taus


def _stream(config: ExperimentConfig) -> tuple:
    """What fixes a config's draws and level paths: all of it but the threshold."""
    return config.arrival, config.packet, config.battery, config.replications, config.seed


class Streams:
    """The stream plan of ``configs``, the pool it asks for and the taus of its streams.

    A stream is the configs that differ only in their threshold. When the
    streams' top thresholds expect ``_POOL_BREAK_EVEN`` packets in all, where
    a pool starts to pay, the plan gives ``processes`` as many as the
    workers, the largest run's chunks and the CPUs allow, and 1 otherwise,
    as for a plan of no configs; each stream's chunks are split over them.
    One rule reads every config: a config whose taus are not held simulates
    its own threshold together with every threshold of its stream not
    simulated yet, in one pass, and holds the others' taus until their own
    ``run`` reads them, once.

    Open it with ``with Streams(workers, configs) as pool:`` and pass it to
    the ``run`` of each config. Entering opens a ``ProcessPoolExecutor`` of
    ``processes`` when that is above 1, and only then imports it; exiting
    drops the pool and shuts it down, so a later run simulates in this
    process.
    """

    def __init__(self, workers: int, configs: Sequence[ExperimentConfig]):
        groups = {}  # stream -> its configs
        for c in configs:
            groups.setdefault(_stream(c), []).append(c)
        top = sum(max(c.expected_packets for c in group) for group in groups.values())
        chunks = _n_chunks(max((c.replications for c in configs), default=0))
        self.processes = max(1, min(workers, chunks, os.cpu_count() or 1)) if top >= _POOL_BREAK_EVEN else 1
        self.executor: Optional[ProcessPoolExecutor] = None  # the pool ``__enter__`` opens, if any
        self._pending = {key: {c.threshold for c in group} for key, group in groups.items()}  # not simulated yet
        self._held = {}  # (stream, threshold) -> taus simulated but not yet read

    def __enter__(self) -> Streams:
        if self.processes > 1:
            from concurrent.futures import ProcessPoolExecutor

            self.executor = ProcessPoolExecutor(max_workers=self.processes)
        return self

    def __exit__(self, *exc) -> None:
        executor, self.executor = self.executor, None
        if executor is not None:
            executor.__exit__(*exc)

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


def run(config: ExperimentConfig, workers: int = 1, pool: Optional[Streams] = None) -> PassageSamples:
    """Run all replications; output is identical for any worker count.

    ``pool`` is an open ``Streams`` shared across runs; every config reads
    its taus by the one rule of ``Streams.taus``, and the pool's plan, not
    ``workers``, sets the processes. Without one, the run opens its own for
    the call, planned for ``config`` alone.
    """
    if pool is None:
        with Streams(workers, [config]) as pool:
            return run(config, pool=pool)
    return PassageSamples(taus=pool.taus(config))


def summarize(samples: PassageSamples, time_grid) -> Tuple[SummaryStats, CdfCurve]:
    """Point estimates plus the empirical CDF; ``ecdf`` refuses an empty sample, before ``np.mean`` warns."""
    taus = samples.taus
    curve = ecdf(taus, time_grid)
    var = float(np.var(taus, ddof=1)) if taus.size > 1 else 0.0
    return SummaryStats(mean=float(np.mean(taus)), variance=var), curve
