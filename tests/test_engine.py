import collections
import dataclasses
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rechargetime import engine
from rechargetime.battery import LinearBattery, NonLinearBattery
from rechargetime.distributions import Deterministic, Exponential, Gamma, InverseGaussian, Uniform
from rechargetime.engine import (
    CHUNK,
    ExperimentConfig,
    Streams,
    run,
    summarize,
)
from rechargetime.renewal import ArrivalProcess, Mode


def cfg(**kw):
    base = dict(
        arrival=ArrivalProcess(Exponential(1.0)),
        packet=Exponential(1.0),
        battery=LinearBattery(),
        threshold=20.0,
        replications=2000,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestPassageTime:
    def test_pure_deterministic_hand_enumeration(self):
        # packets of 3 at epochs 0,1,2,...: cumulative exceeds 20 with the
        # 7th packet (21 > 20), which lands at epoch 6
        for seed in range(5):
            c = cfg(
                arrival=ArrivalProcess(Deterministic(1.0), Mode.PURE),
                packet=Deterministic(3.0),
                seed=seed,
            )
            assert np.all(run(c).taus == 6.0)

    def test_equilibrium_deterministic_shifts_by_residual(self):
        c = cfg(arrival=ArrivalProcess(Deterministic(1.0)), packet=Deterministic(3.0))
        taus = run(c).taus
        assert len(taus) == 2000
        assert np.all((taus > 6.0) & (taus < 7.0))

    def test_huge_beta_matches_linear(self):
        # configs that share a seed see the same draws, replication by replication
        t_lin = run(cfg(battery=LinearBattery())).taus
        t_non = run(cfg(battery=NonLinearBattery(umax=25.0, beta=1e6))).taus
        assert t_non == pytest.approx(t_lin, abs=1e-6)

    def test_tau_is_an_arrival_epoch(self):
        c = cfg(arrival=ArrivalProcess(Gamma(1.5, 2.0)), packet=Uniform(0.0, 1.0), threshold=5.0, replications=CHUNK)
        taus = run(c).taus
        # replay chunk 0's draw schedule to recover every row's epochs: the
        # residual waits of the chunk, then [CHUNK, 64] blocks of inter-arrivals
        # and packets
        rng = np.random.default_rng(np.random.SeedSequence(c.seed).spawn(1)[0])
        epochs = c.arrival.residual_sample(rng, CHUNK)[:, None]
        while np.any(epochs[:, -1] < taus):
            gaps = c.arrival.interarrival.sample(rng, (CHUNK, 64))
            c.packet.sample(rng, (CHUNK, 64))  # consume the packet block
            epochs = np.hstack([epochs, epochs[:, -1:] + np.cumsum(gaps, axis=1)])
        assert np.all(np.abs(epochs - taus[:, None]).min(axis=1) < 1e-9)


def replay_chunk(c, chunk=0):
    """Taus of chunk ``chunk`` of ``run(c)``, replayed one row and one packet at a time.

    The chunk draws from child ``chunk`` of SeedSequence(seed), spawned here
    with all the children before it, and follows the kernel's schedule: the
    residual waits of the chunk, then [CHUNK, 64] blocks of inter-arrivals
    and packets. Within a block a row's epoch is its carried epoch plus a
    running sum of its gaps. A non-linear battery's level is stepped by the
    paper's written rule, min(U + (1 - ((U - a)/b)^2) x, umax); a linear
    one's is the carried level plus a running sum of the block's packets. A
    block's last level and its gap total carry over to the next block.
    """
    per_packet = isinstance(c.battery, NonLinearBattery)
    u = c.threshold
    rng = np.random.default_rng(np.random.SeedSequence(c.seed).spawn(chunk + 1)[chunk])
    t = c.arrival.residual_sample(rng, CHUNK)
    level = np.zeros(CHUNK)
    taus = np.full(min(c.replications - chunk * CHUNK, CHUNK), np.nan)
    while np.isnan(taus).any():
        gaps = c.arrival.interarrival.sample(rng, (CHUNK, 64))
        packets = c.packet.sample(rng, (CHUNK, 64))
        for r in np.flatnonzero(np.isnan(taus)):
            epoch, added, U = 0.0, 0.0, level[r]
            for k in range(64):
                if per_packet:
                    d = (U - c.battery.a) / c.battery.b
                    U = min(U + (1.0 - d * d) * packets[r, k], c.battery.umax)
                else:
                    added += packets[r, k]
                    U = level[r] + added
                if U > u:
                    taus[r] = epoch + t[r]
                    break
                epoch += gaps[r, k]
            level[r] = U
            t[r] += gaps[r].sum()
    return taus


class TestKernelOracle:
    @pytest.mark.parametrize(
        "battery, packet, u, lower",
        [
            (LinearBattery(), Uniform(0.0, 1.0), 35.0, 10.0),
            (NonLinearBattery(umax=25.0, beta=1.1), Uniform(0.0, 1.0), 20.0, 8.0),
            (LinearBattery(), Deterministic(1.0), 128.0, 64.0),
        ],
        ids=["linear", "per-packet", "linear-ties"],
    )
    def test_taus_equal_a_row_by_row_replay(self, battery, packet, u, lower):
        # about 71 and 60 packets a row, so some rows cross in the first block
        # and some in the second, in a chunk cut to 200 of its 256 rows; the
        # lower level of the same stream, about 21 and 33 packets, reads its
        # taus from the same pass. Unit packets end blocks 0 and 1 exactly on
        # both levels, which every row passes with the next packet.
        c = cfg(
            arrival=ArrivalProcess(Gamma(1.5, 2.0)),
            packet=packet,
            battery=battery,
            threshold=u,
            replications=200,
            seed=9,
        )
        low = dataclasses.replace(c, threshold=lower)
        with Streams(1, [c, low]) as streams:
            taus, low_taus = (run(x, pool=streams).taus for x in (c, low))
        assert taus.tobytes() == replay_chunk(c).tobytes()
        assert low_taus.tobytes() == replay_chunk(low).tobytes()

    @pytest.mark.parametrize(
        "battery, packet, u",
        [(LinearBattery(), Exponential(1.0), 45.0), (NonLinearBattery(umax=25.0, beta=1.1), Uniform(0.0, 1.0), 18.0)],
        ids=["linear", "per-packet"],
    )
    def test_every_chunk_equals_its_row_by_row_replay(self, battery, packet, u):
        # TestBufferReuse's run: chunks 0 and 1 step two blocks and chunk 2,
        # cut to 40 rows, one. The replay spawns each chunk's child of the
        # seed with every child before it, so a chunk seeded from any other
        # child fails here
        c = cfg(packet=packet, battery=battery, threshold=u, replications=2 * CHUNK + 40, seed=3)
        taus = run(c).taus
        for chunk in range(3):
            assert taus[chunk * CHUNK : (chunk + 1) * CHUNK].tobytes() == replay_chunk(c, chunk).tobytes()

    @pytest.mark.parametrize(
        "battery, packets",
        [(LinearBattery(), 70), (NonLinearBattery(umax=25.0, beta=1.1), 15)],
        ids=["linear", "per-packet"],
    )
    def test_one_packet_passes_two_levels(self, battery, packets):
        # unit packets give every row the same path; both levels sit between
        # its values after ``packets`` and ``packets + 1`` packets, so one
        # packet lifts every row above both: in block 1 (linear) or block 0
        # (per-packet)
        lifts = battery.path(np.zeros(1), np.ones((1, 128)), np.inf, np.empty((128, 1)))[:, 0]
        below, above = lifts[packets - 1], lifts[packets]
        lower, upper = below + (above - below) * np.array([0.25, 0.75])
        assert np.searchsorted(lifts, lower) == np.searchsorted(lifts, upper) == packets
        c = cfg(
            arrival=ArrivalProcess(Gamma(1.5, 2.0)),
            packet=Deterministic(1.0),
            battery=battery,
            threshold=upper,
            replications=200,
            seed=9,
        )
        low = dataclasses.replace(c, threshold=lower)
        with Streams(1, [c, low]) as streams:
            taus, low_taus = (run(x, pool=streams).taus for x in (c, low))
        assert taus.tobytes() == replay_chunk(c).tobytes()
        assert low_taus.tobytes() == replay_chunk(low).tobytes()
        assert taus.tobytes() == low_taus.tobytes()

    @pytest.mark.parametrize(
        "battery, u",
        [(LinearBattery(), 20.0), (NonLinearBattery(umax=25.0, beta=1.1), 10.0)],
        ids=["linear", "per-packet"],
    )
    @pytest.mark.parametrize("bad", [-1.0, np.nan], ids=["negative", "nan"])
    def test_packet_check_covers_the_whole_block(self, battery, u, bad):
        class PoisonedPackets:
            """Packets of 0.25, with one bad column in the second block."""

            mean = 0.25

            def __init__(self):
                self.blocks = 0

            def sample(self, rng, out):
                self.blocks += 1
                out.fill(self.mean)
                if self.blocks == 2:
                    out[:, 40] = bad
                return out

            def config_str(self):
                return "poisoned"

        # every row crosses with its 81st (linear, u = 20) or 75th
        # (per-packet) packet, so the kernel never uses the bad column, the
        # 105th packet
        c = cfg(packet=PoisonedPackets(), battery=battery, threshold=u, replications=CHUNK)
        with pytest.raises(ValueError, match="packet energy must be >= 0"):
            run(c)

    @pytest.mark.parametrize(
        "battery, u",
        [(LinearBattery(), 20.0), (NonLinearBattery(umax=25.0, beta=1.1), 10.0)],
        ids=["linear", "per-packet"],
    )
    @pytest.mark.parametrize("bad", [-1.0, np.nan], ids=["negative", "nan"])
    def test_packet_check_covers_rows_that_have_crossed(self, battery, u, bad):
        class LateBadPacket:
            """Packets of 0.25, but row 0 starts with 1000 and gets one bad packet in the second block."""

            mean = 0.25

            def __init__(self):
                self.blocks = 0

            def sample(self, rng, out):
                self.blocks += 1
                out.fill(self.mean)
                if self.blocks == 1:
                    out[0, 0] = 1000.0
                if self.blocks == 2:
                    out[0, 0] = bad
                return out

            def config_str(self):
                return "late-bad"

        # row 0 crosses with its first packet; every other row crosses with
        # its 81st (linear, u = 20) or 75th (per-packet, u = 10) packet, in
        # the second block, where row 0's packets are checked too
        c = cfg(packet=LateBadPacket(), battery=battery, threshold=u, replications=CHUNK)
        with pytest.raises(ValueError, match="packet energy must be >= 0"):
            run(c)

    def test_packet_check_covers_every_chunk_of_a_group(self):
        class BadInChunkTwo:
            """Packets of 0.25, but chunk 2 draws one negative packet into its last kept row."""

            mean = 0.25

            def sample(self, rng, out):
                out.fill(self.mean)
                if rng.bit_generator.seed_seq.spawn_key == (2,):
                    out[39, 0] = -1.0
                return out

            def config_str(self):
                return "bad-in-chunk-2"

        # one range steps chunks 0-2 as one group of 2 CHUNK + 40 kept rows;
        # the bad packet is the first packet of the group's last kept row
        c = cfg(packet=BadInChunkTwo(), replications=2 * CHUNK + 40)
        with pytest.raises(ValueError, match="packet energy must be >= 0"):
            run(c)


class TestRun:
    def test_reproducible_and_seed_sensitive(self):
        a = run(cfg(seed=42)).taus
        b = run(cfg(seed=42)).taus
        c = run(cfg(seed=43)).taus
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_worker_count_does_not_change_output(self, pool_always_pays):
        a = run(cfg(replications=400), workers=1).taus
        b = run(cfg(replications=400), workers=4).taus
        np.testing.assert_array_equal(a, b)

    def test_mean_matches_asymptotic(self):
        # Exp(1)/Exp(1), u=20: asymptotic mean 21
        s = run(cfg(replications=20000, seed=3))
        assert abs(s.taus.mean() - 21.0) / 21.0 < 0.05


# run-level contracts of the chunk kernel, on runs whose last chunk is partial
# and with thresholds that take some rows through several 64-packet blocks
LAWS = [Exponential(1.0), Gamma(1.5, 2.0), InverseGaussian(1.0, 2.0), Uniform(0.0, 2.0), Deterministic(1.0)]
PARTIAL = CHUNK + 44
RUN_LEVEL = settings(max_examples=15, deadline=None, derandomize=True)


class TestChunkedRun:
    @RUN_LEVEL
    @given(
        seed=st.integers(0, 2**32 - 1),
        arrival=st.sampled_from(LAWS),
        packet=st.sampled_from(LAWS),
        u=st.floats(0.5, 150.0),
        du=st.floats(0.0, 50.0),
    )
    def test_taus_monotone_in_threshold(self, seed, arrival, packet, u, du):
        base = dict(arrival=ArrivalProcess(arrival), packet=packet, replications=PARTIAL, seed=seed)
        lo = run(cfg(threshold=u, **base)).taus
        hi = run(cfg(threshold=u + du, **base)).taus
        assert np.all(lo <= hi)

    @RUN_LEVEL
    @given(
        seed=st.integers(0, 2**32 - 1),
        arrival=st.sampled_from(LAWS),
        packet=st.sampled_from(LAWS),
        u=st.floats(0.5, 150.0),
        rule=st.sampled_from(["per_packet", "continuous"]),
    )
    def test_nonlinear_taus_at_least_linear(self, seed, arrival, packet, u, rule):
        base = dict(arrival=ArrivalProcess(arrival), packet=packet, replications=PARTIAL, seed=seed)
        lin = run(cfg(threshold=u, **base)).taus
        battery = NonLinearBattery(umax=160.0, beta=1.1)
        if rule == "per_packet":
            non = run(cfg(battery=battery, threshold=u, **base)).taus
        else:
            # the continuous model is the linear battery at the shifted threshold
            non = run(cfg(threshold=battery.input_for_level(u), **base)).taus
        assert np.all(non >= lin)

    @pytest.mark.parametrize(
        "config",
        [
            cfg(replications=2 * CHUNK + 50, seed=11),
            cfg(
                arrival=ArrivalProcess(Gamma(1.5, 2.0)),
                packet=Uniform(0.0, 1.0),
                battery=NonLinearBattery(umax=25.0, beta=1.1),
                replications=2 * CHUNK + 50,
                seed=12,
            ),
        ],
        ids=["linear", "per-packet"],
    )
    def test_identical_at_workers_1_2_3(self, config, monkeypatch, pool_always_pays):
        # three real processes at most; the CPU count is raised so that
        # workers=3 splits the three chunks three ways even on two CPUs
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        serial = run(config, workers=1).taus
        for workers in (2, 3):
            np.testing.assert_array_equal(run(config, workers=workers).taus, serial)

    @pytest.mark.parametrize("short", [1, 10, CHUNK, PARTIAL])
    def test_longer_run_starts_with_shorter_run(self, short):
        long = run(cfg(threshold=8.0, replications=3 * CHUNK + 7, seed=5)).taus
        np.testing.assert_array_equal(run(cfg(threshold=8.0, replications=short, seed=5)).taus, long[:short])


class TestBufferReuse:
    @pytest.mark.parametrize(
        "battery, packet, levels",
        [
            (LinearBattery(), Exponential(1.0), (20.0, 45.0)),
            (NonLinearBattery(umax=25.0, beta=1.1), Uniform(0.0, 1.0), (8.0, 18.0)),
        ],
        ids=["linear", "per-packet"],
    )
    def test_each_chunk_equals_its_range_alone(self, battery, packet, levels, monkeypatch):
        # one range of three chunks, the last cut to 40 rows, steps them as
        # one group in one set of block buffers. Alone, chunks 0 and 1 step
        # two blocks and chunk 2 one, and the per-packet path stops within
        # the last block of each chunk; the group steps two blocks, one
        # ``path`` call each, and chunk 2 stands still in the second.
        # Chunk 0 must also equal the row-by-row replay, which draws new
        # arrays per block: a level kept in a buffer that the next draw
        # overwrites gives the same taus chunk by chunk, but not the replay's
        c = cfg(packet=packet, battery=battery, threshold=levels[-1], replications=2 * CHUNK + 40, seed=3)
        levels = np.array(levels)
        path = type(battery).path
        columns = []  # per range, the columns of each block's path

        def recorded(self, *args):
            steps = path(self, *args)
            columns[-1].append(len(steps))
            return steps

        monkeypatch.setattr(type(battery), "path", recorded)
        columns.append([])
        whole = engine._run_range(c, levels, 0, 3)
        for chunk in range(3):
            columns.append([])
            alone = engine._run_range(c, levels, chunk, chunk + 1)
            assert alone.tobytes() == whole[:, chunk * CHUNK : (chunk + 1) * CHUNK].tobytes()
        assert [len(blocks) for blocks in columns[1:]] == [2, 2, 1]
        assert len(columns[0]) == 2 and (columns[0][-1] < 64) == isinstance(battery, NonLinearBattery)
        if isinstance(battery, NonLinearBattery):
            assert all(blocks[-1] < 64 for blocks in columns[1:])
        for taus, u in zip(whole, levels):
            replay = replay_chunk(dataclasses.replace(c, threshold=u))
            assert taus[:CHUNK].tobytes() == replay.tobytes()

    def test_a_one_column_path_in_a_later_block(self, monkeypatch):
        # every row takes the same packets, so every row's level after n
        # packets is the written rule stepped n times from 0. The top lies
        # between the levels after 64 and 65 packets: no row crosses it in
        # block 0, and every row crosses it with the first packet of block 1,
        # whose path is one column wide. The lower level is crossed in block 0
        battery = NonLinearBattery(umax=25.0, beta=1.1)
        after = [0.0]  # the level after n packets
        for _ in range(65):
            d = (after[-1] - battery.a) / battery.b
            after.append(min(after[-1] + (1.0 - d * d) * 0.3, battery.umax))
        levels = np.array([(after[20] + after[21]) / 2, (after[64] + after[65]) / 2])
        c = cfg(
            arrival=ArrivalProcess(Gamma(1.5, 2.0)),
            packet=Deterministic(0.3),
            battery=battery,
            threshold=levels[-1],
            replications=2 * CHUNK + 40,
            seed=3,
        )
        path = NonLinearBattery.path
        columns = []  # the columns of each block's path

        def recorded(self, *args):
            steps = path(self, *args)
            columns.append(len(steps))
            return steps

        monkeypatch.setattr(NonLinearBattery, "path", recorded)
        whole = engine._run_range(c, levels, 0, 3)
        assert columns == [64, 1]
        for taus, u in zip(whole, levels):
            for chunk in range(3):
                replay = replay_chunk(dataclasses.replace(c, threshold=u), chunk)
                assert taus[chunk * CHUNK : (chunk + 1) * CHUNK].tobytes() == replay.tobytes()


    @pytest.mark.parametrize(
        "battery, packet, levels",
        [
            (LinearBattery(), Exponential(1.0), (40.0, 160.0)),
            (NonLinearBattery(umax=25.0, beta=1.1), Uniform(0.0, 1.0), (10.0, 20.0)),
            (LinearBattery(), InverseGaussian(1.0, 0.5), (20.0, 40.0)),
        ],
        ids=["linear", "per-packet", "finish-apart"],
    )
    def test_a_range_allocates_less_than_a_plane_past_its_planes(self, battery, packet, levels):
        # a range of four chunks steps one group of 1024 rows in three
        # [1024, 64] planes; the path, the gaps' running sum and the draws
        # land there, so the rest of the kernel's memory (the count, the
        # crossings, the taus) stays below one more plane. One block-sized
        # array allocated per block, such as a path from ``np.cumsum`` without
        # ``out=``, lifts the peak past it; the page-fault count misses one
        c = cfg(packet=packet, battery=battery, threshold=levels[-1], replications=4 * CHUNK, seed=7)
        levels = np.array(levels)
        engine._run_range(c, levels, 0, 4)  # warm-up
        plane = 4 * CHUNK * 64 * 8  # bytes
        tracemalloc.start()
        try:
            engine._run_range(c, levels, 0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 3 * plane < plane

class CountedPackets:
    """A packet law that counts the blocks each chunk's generator draws, by the chunk's spawn key."""

    def __init__(self, law):
        self.law, self.mean = law, law.mean
        self.blocks = collections.Counter()

    def sample(self, rng, out):
        self.blocks[rng.bit_generator.seed_seq.spawn_key[0]] += 1
        return self.law.sample(rng, out=out)

    def config_str(self):
        return f"counted {self.law.config_str()}"


class TestGrouping:
    @pytest.mark.parametrize(
        "battery, law, u",
        [(LinearBattery(), Exponential(1.0), 45.0), (NonLinearBattery(umax=25.0, beta=1.1), Uniform(0.0, 1.0), 16.0)],
        ids=["linear", "per-packet"],
    )
    def test_grouping_is_invisible(self, battery, law, u, fake_pools, pool_always_pays):
        # ten chunks, the last cut to 17 rows. At workers 1 the range groups
        # chunks 0-3, 4-7 and 8-9; at 2 the ranges [0, 5) and [5, 10) group
        # 0-3, 4, 5-8 and 9; at 3 the ranges [0, 3), [3, 6) and [6, 10) group
        # 0-2, 3-5 and 6-9. Alone, chunks 0-3 step one or two blocks, so a
        # group steps on with chunks that have finished
        packets = CountedPackets(law)
        c = cfg(packet=packets, battery=battery, threshold=u, replications=9 * CHUNK + 17, seed=3)
        for chunk in range(10):
            engine._run_range(c, np.array([u]), chunk, chunk + 1)
        alone, packets.blocks = packets.blocks, collections.Counter()
        assert {alone[chunk] for chunk in range(4)} == {1, 2}
        taus = []
        for workers in (1, 2, 3):
            taus.append(run(c, workers=workers).taus)
            assert packets.blocks == alone
            packets.blocks = collections.Counter()
        assert [p.max_workers for p in fake_pools] == [2, 3]
        assert taus[1].tobytes() == taus[0].tobytes() and taus[2].tobytes() == taus[0].tobytes()
        plain = dataclasses.replace(c, packet=law)
        for chunk in (0, 4, 8):
            assert taus[0][chunk * CHUNK : (chunk + 1) * CHUNK].tobytes() == replay_chunk(plain, chunk).tobytes()


class TestWorkerPool:
    def test_no_more_processes_than_chunks(self, fake_pools, pool_always_pays):
        c = cfg(replications=3 * CHUNK - 10)
        taus = run(c, workers=100_000).taus
        assert [p.max_workers for p in fake_pools] == [3]
        np.testing.assert_array_equal(taus, run(c).taus)

    def test_no_more_processes_than_cpus(self, fake_pools, monkeypatch, pool_always_pays):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        run(cfg(replications=10 * CHUNK), workers=100_000)
        assert [p.max_workers for p in fake_pools] == [2]

    def test_one_chunk_starts_no_pool(self, fake_pools, pool_always_pays):
        run(cfg(replications=CHUNK), workers=100_000)
        assert fake_pools == []

    def test_pool_once_the_summed_estimate_reaches_the_break_even(self, fake_pools, monkeypatch):
        # 600 replications at u = 20 and u = 40 of unit-mean packets: 12 600
        # and 24 600 expected packets, on two seeds, so two streams
        lo, hi = cfg(replications=600), cfg(replications=600, threshold=40.0, seed=1)
        assert (lo.expected_packets, hi.expected_packets) == (12_600, 24_600)
        monkeypatch.setattr(engine, "_POOL_BREAK_EVEN", 12_600 + 24_600)
        with Streams(2, [lo, hi]) as streams:
            assert streams.executor is fake_pools[0]
        with Streams(2, [hi]) as streams:
            assert streams.executor is None
        run(hi, workers=2)
        assert len(fake_pools) == 1

    def test_thresholds_of_one_stream_count_once(self, fake_pools, monkeypatch):
        # one stream simulates u = 20 on its way to u = 40, so it expects the
        # 24 600 packets of its top threshold, not 12 600 + 24 600
        lo, hi = cfg(replications=600), cfg(replications=600, threshold=40.0)
        monkeypatch.setattr(engine, "_POOL_BREAK_EVEN", 24_600 + 1)
        with Streams(2, [lo, hi]) as streams:
            assert streams.executor is None
        monkeypatch.setattr(engine, "_POOL_BREAK_EVEN", 24_600)
        with Streams(2, [lo, hi]) as streams:
            assert streams.executor is fake_pools[0]

    def test_the_pools_plan_sets_the_processes(self, fake_pools, pool_always_pays):
        # three chunks over the pool's two processes, whatever workers the run passes
        c = cfg(replications=3 * CHUNK)
        with Streams(2, [c]) as streams:
            taus = run(c, workers=1, pool=streams).taus
        assert [(p.max_workers, p.tasks) for p in fake_pools] == [(2, [2])]
        np.testing.assert_array_equal(taus, run(c).taus)

    def test_pool_size(self, monkeypatch, pool_always_pays):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert Streams(1, [cfg(replications=10**6)]).processes == 1
        assert Streams(100_000, [cfg(replications=10**6)]).processes == 4
        assert Streams(100_000, [cfg(replications=CHUNK + 1)]).processes == 2

    def test_a_block_that_raises_still_shuts_the_pool(self, fake_pools, pool_always_pays):
        streams = Streams(2, [cfg(replications=2 * CHUNK)])
        with pytest.raises(KeyError, match="in the block"):
            with streams:
                assert streams.executor is fake_pools[0]
                raise KeyError("in the block")
        assert streams.executor is None
        assert fake_pools[0].exit_args[0] is KeyError


# (battery, packet law, four ascending levels) of a stream: of Uniform(0, 1)
# packets a row needs about 5 to 120 (linear) and 15 to 75 (per-packet), so
# the lowest level is crossed in block 0 and the top one mostly in later
# blocks. Unit packets end blocks 0 and 1 exactly on 64 and 128, which the
# strict crossing U > u does not yet pass.
STREAMS = {
    "linear": (LinearBattery(), Uniform(0.0, 1.0), (2.0, 10.0, 35.0, 60.0)),
    "per-packet": (NonLinearBattery(umax=25.0, beta=1.1), Uniform(0.0, 1.0), (2.0, 8.0, 20.0, 24.0)),
    "linear-ties": (LinearBattery(), Deterministic(1.0), (3.0, 64.0, 100.0, 128.0)),
}
LEVEL_PICKS = {1: (3,), 2: (0, 3), 3: (0, 2, 3), 4: (0, 1, 2, 3)}


def stream_configs(case, n_levels):
    """The configs of one stream, in an order that is not ascending."""
    battery, packet, levels = STREAMS[case]
    levels = [levels[i] for i in LEVEL_PICKS[n_levels]]
    base = dict(arrival=ArrivalProcess(Gamma(1.5, 2.0)), packet=packet, battery=battery, replications=600, seed=9)
    return [cfg(threshold=u, **base) for u in levels[1:] + levels[:1]]


class TestSharedStreams:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_levels", sorted(LEVEL_PICKS))
    @pytest.mark.parametrize("case", sorted(STREAMS))
    def test_each_threshold_equals_a_separate_run(self, case, n_levels, workers, fake_pools, pool_always_pays):
        # 600 replications: two full chunks and one cut to 88 of its 256 rows
        configs = stream_configs(case, n_levels)
        with Streams(workers, configs) as streams:
            shared = [run(c, workers, streams).taus for c in configs]
        assert [p.maps for p in fake_pools] == ([1] if workers == 2 else [])
        for c, taus in zip(configs, shared):
            assert np.array_equal(taus, run(c).taus)

    def test_two_real_processes(self, monkeypatch, pool_always_pays):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        configs = stream_configs("per-packet", 4)
        with Streams(2, configs) as streams:
            assert isinstance(streams.executor, ProcessPoolExecutor)
            shared = [run(c, 2, streams).taus for c in configs]
        for c, taus in zip(configs, shared):
            assert np.array_equal(taus, run(c).taus)

    def test_a_closed_pool_leaves_the_run_in_this_process(self, monkeypatch, pool_always_pays):
        # after its block the pool is shut down; a run that must simulate
        # (here a stream whose held taus were read) no longer schedules on it
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        c = cfg(replications=600)
        with Streams(2, [c]) as streams:
            assert isinstance(streams.executor, ProcessPoolExecutor)
            pooled = run(c, pool=streams).taus
        assert streams.executor is None
        np.testing.assert_array_equal(run(c, pool=streams).taus, pooled)
        np.testing.assert_array_equal(pooled, run(c).taus)

    def test_an_empty_plan_opens_no_pool(self, fake_pools, pool_always_pays):
        # a library caller that filters its configs down to none; max() over
        # no replications raised before
        c = cfg(replications=300)
        with Streams(2, []) as pool:
            assert pool.processes == 1 and pool.executor is None
            taus = run(c, pool=pool).taus
        assert fake_pools == []
        np.testing.assert_array_equal(taus, run(c).taus)

    def test_held_taus_are_read_once(self, monkeypatch):
        levels_run = []
        inner = engine._run_range

        def recorded(config, levels, start, stop):
            levels_run.append(levels.tolist())
            return inner(config, levels, start, stop)

        monkeypatch.setattr(engine, "_run_range", recorded)
        lo, hi, outside = (cfg(threshold=u, replications=300) for u in (5.0, 10.0, 7.0))
        with Streams(1, [lo, hi]) as streams:
            taus = [run(c, pool=streams).taus for c in (hi, lo, lo, outside)]
        # hi simulates the stream; lo reads its held taus, then runs alone;
        # a config outside the pool's configs runs alone
        assert levels_run == [[5.0, 10.0], [5.0], [7.0]]
        np.testing.assert_array_equal(taus[1], taus[2])

    def test_an_outside_config_simulates_with_its_streams_pending_thresholds(self, monkeypatch):
        levels_run = []
        inner = engine._run_range

        def recorded(config, levels, start, stop):
            levels_run.append(levels.tolist())
            return inner(config, levels, start, stop)

        monkeypatch.setattr(engine, "_run_range", recorded)
        lo, hi, outside = (cfg(threshold=u, replications=300) for u in (5.0, 10.0, 7.0))
        with Streams(1, [lo, hi]) as streams:
            taus = [run(c, pool=streams).taus for c in (outside, lo, hi)]
        # one pass for the outside threshold and the two the plan foresaw;
        # lo and hi then read their held taus
        assert levels_run == [[5.0, 7.0, 10.0]]
        for c, shared in zip((outside, lo, hi), taus):
            np.testing.assert_array_equal(shared, run(c).taus)


class TestPathwiseProperties:
    def test_monotone_in_threshold(self):
        t1 = run(cfg(threshold=5.0)).taus
        t2 = run(cfg(threshold=15.0)).taus
        assert np.all(t1 <= t2)

    def test_nonlinear_dominates_linear(self):
        lin = run(cfg()).taus
        non = run(cfg(battery=NonLinearBattery(umax=25.0, beta=1.1))).taus
        assert np.all(non >= lin)

    @pytest.mark.parametrize(
        "law,scaled",
        [
            (Exponential(1.0), Exponential(0.5)),
            (Gamma(1.5, 2.0), Gamma(1.5, 4.0)),
            (Uniform(0.5, 2.0), Uniform(1.0, 4.0)),
            (InverseGaussian(1.0, 2.0), InverseGaussian(2.0, 4.0)),
            (Deterministic(1.0), Deterministic(2.0)),
        ],
        ids=lambda s: s.config_str(),
    )
    def test_scale_equivariance(self, law, scaled):
        # doubling all inter-arrival times doubles every passage time
        t1 = run(cfg(arrival=ArrivalProcess(law), packet=Uniform(0.0, 1.0), threshold=8.0)).taus
        t2 = run(cfg(arrival=ArrivalProcess(scaled), packet=Uniform(0.0, 1.0), threshold=8.0)).taus
        assert t2 == pytest.approx(2.0 * t1, rel=1e-9, abs=1e-9)


class TestSummarize:
    def test_small_sample(self):
        from rechargetime.engine import PassageSamples

        s = PassageSamples(taus=[1.0, 2.0, 3.0])
        stats, curve = summarize(s, [0.5, 2.0, 5.0])
        assert stats.mean == 2.0
        assert stats.variance == 1.0
        assert tuple(curve.values) == (0.0, pytest.approx(2 / 3), 1.0)

    def test_variance_matches_asymptotic(self):
        s = run(cfg(replications=20000, seed=5))
        stats, _ = summarize(s, [1.0, 2.0])
        assert abs(stats.variance - 41.0) / 41.0 < 0.10

    def test_empty_sample_refused(self):
        from rechargetime.engine import PassageSamples

        with pytest.raises(ValueError):
            summarize(PassageSamples(taus=[]), [1.0, 2.0])


class TestValidation:
    def test_threshold_above_capacity(self):
        with pytest.raises(ValueError):
            cfg(battery=LinearBattery(umax=25.0), threshold=30.0)

    def test_threshold_at_capacity(self):
        # the level is capped at capacity and never exceeds u = capacity,
        # so a replication would run on to the packet limit
        with pytest.raises(ValueError, match="outside"):
            cfg(battery=LinearBattery(umax=25.0), threshold=25.0)

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            cfg(replications=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            cfg(seed=-1)

    def test_counts_must_be_integers(self):
        # a float count would build and then fail inside numpy, after --out exists
        with pytest.raises(ValueError, match=r"^replications must be an integer, got 1000\.0$"):
            cfg(replications=1e3)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            cfg(seed=1.5)
        assert cfg(replications=np.int64(300), seed=np.uint32(7)).replications == 300

    def test_past_the_packet_budget(self):
        # 4e7 packets a replication, 8e10 in all: refused before anything runs
        with pytest.raises(ValueError, match=r"u = 20 with packet mean 5e-07 .* budget of 1e\+09"):
            cfg(packet=Uniform(0.0, 1e-6))

    def test_packet_budget_counts_the_whole_chunk(self):
        # one replication of about 2e7 packets, but its chunk draws 256 rows,
        # 5.1e9 packets; at rate 1.95e5 the chunk draws 1.0e9 and is accepted
        with pytest.raises(ValueError, match=r"u = 20 with packet mean 1e-06 draws about 5\.1e\+09 packets over 256 rows"):
            cfg(packet=Exponential(1e6), replications=1)
        cfg(packet=Exponential(1.95e5), replications=1)

    def test_packet_limit_names_the_config(self, monkeypatch):
        # 2001 packets of 0.01 to pass u = 20, past a limit of two blocks; the
        # budget is lowered after the config is built, which it would refuse
        c = cfg(packet=Deterministic(0.01), replications=10)
        monkeypatch.setattr(engine, "_PACKET_BUDGET", 128)
        with pytest.raises(engine.UnreachableThresholdError, match=r"128 packets .*ExperimentConfig\(.*threshold=20\.0"):
            run(c)
