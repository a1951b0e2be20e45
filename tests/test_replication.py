"""Hot-standby replication: log, shipper, follower, fault injection.

The contract under test, end to end: **a promoted follower is
byte-identical (via ``dumps``) to a from-scratch build of the
acknowledged input prefix**, under arbitrary interleavings of ingest
and retention and under every fault a seeded :class:`FaultPlan` can
inject on the wire — disconnects, duplicated and reordered records,
torn tails, flipped bytes, refused connects.

Layers, in increasing integration order:

- :class:`ReplicationLog` unit behavior: monotonic contiguous
  sequencing, ack-trimming, ``pending_after`` windows, segment teeing
  (including a region lane's spill files);
- :class:`ReplicatedStore`: every write surface tees exactly the block
  that rebuilds the store, reads delegate untouched;
- shipper → follower over real sockets: clean-path equivalence,
  duplicate suppression, promote-freezes-store;
- the **fault-injection property** (hypothesis): random op sequences
  through a :class:`FaultProxy` running seeded chaos plans, asserting
  byte-equality after catch-up plus the zero-acknowledged-loss
  invariant on a mid-stream primary kill;
- a live **two-process failover**: ``python -m repro follow`` in a
  subprocess, promoted by SIGUSR1 mid-stream, then queried over the
  standard endpoint and diffed against a local reference store.
"""

import asyncio
import io
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import (
    REPLICATION_MAGIC,
    Follower,
    FollowerStats,
    ReplicatedStore,
    ReplicationLog,
    SegmentShipper,
)
from repro.tsdb import (
    BatchBuilder,
    DurableStore,
    PointBatch,
    Query,
    SegmentCorruption,
    SegmentWriter,
    TSDB,
    dumps,
    load,
)
from repro.tsdb.persistence import DeleteBefore, DeleteSeriesBefore
from repro.tsdb.segments import decode_block, decode_frame, parse_series_key
from repro.tsdb import segments
from replication_faults import FaultPlan, FaultProxy, wait_applied

# Tight timings so a full fault schedule replays in well under a second
# per example; generous waits only where a test would otherwise hang.
FAST = dict(backoff=0.005, max_backoff=0.05, connect_timeout=2.0, seed=0)


def small_batch(i: int, keys=("a", "b")) -> PointBatch:
    b = BatchBuilder()
    for node in keys:
        b.add("air.co2.ppm", 100 * i, 400.0 + i, {"node": node})
    return b.build()


def replay_log(log_records) -> TSDB:
    """Rebuild a store by applying framed log records in order — the
    ground truth the follower must reproduce."""
    db = TSDB()
    for _seq, frame in log_records:
        item = decode_block(*decode_frame(frame))
        if isinstance(item, PointBatch):
            db.put_batch(item)
        elif isinstance(item, DeleteSeriesBefore):
            db.delete_series_before(item.key, item.cutoff)
        elif isinstance(item, DeleteBefore):
            db.delete_before(item.cutoff, exclude_suffix=item.exclude_suffix)
    return db


class TestReplicationLog:
    def test_sequences_are_contiguous_from_one(self):
        log = ReplicationLog()
        assert log.last_seq == 0 and log.acked_seq == 0
        seqs = [log.append_batch(small_batch(i)) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert log.last_seq == 5 and len(log) == 5

    def test_empty_batch_appends_nothing(self):
        log = ReplicationLog()
        log.append_batch(small_batch(0))
        assert log.append_batch(PointBatch.empty()) == 1  # unchanged
        assert len(log) == 1

    def test_ack_trims_prefix_and_is_monotonic(self):
        log = ReplicationLog()
        for i in range(6):
            log.append_batch(small_batch(i))
        log.ack(4)
        assert log.acked_seq == 4 and len(log) == 2
        log.ack(2)  # stale ack: no-op
        assert log.acked_seq == 4 and len(log) == 2
        log.ack(100)  # beyond the end: everything goes
        assert len(log) == 0 and log.acked_seq == 100

    def test_pending_after_is_a_window(self):
        log = ReplicationLog()
        for i in range(6):
            log.append_batch(small_batch(i))
        log.ack(2)
        assert [s for s, _ in log.pending_after(0)] == [3, 4, 5, 6]
        assert [s for s, _ in log.pending_after(4)] == [5, 6]
        assert [s for s, _ in log.pending_after(3, limit=2)] == [4, 5]
        assert log.pending_after(6) == []

    def test_trim_waits_for_the_slowest_follower(self):
        # Fan-out: records are freed only below the *minimum* acked
        # cursor, so a fast follower can't release what a slow one
        # still needs.
        log = ReplicationLog()
        for i in range(6):
            log.append_batch(small_batch(i))
        log.register_follower("fast")
        log.register_follower("slow")
        log.ack(6, follower="fast")
        assert log.acked_for("fast") == 6
        assert log.acked_seq == 0 and len(log) == 6  # slow holds them
        log.ack(4, follower="slow")
        assert log.acked_seq == 4 and len(log) == 2
        log.ack(6, follower="slow")
        assert len(log) == 0
        assert log.acked_for("fast") == log.acked_for("slow") == 6

    def test_register_before_ack_holds_records(self):
        log = ReplicationLog()
        log.append_batch(small_batch(0))
        # Single implicit follower drains as before...
        log.ack(1)
        assert len(log) == 0
        # ...but a follower registered later starts at the trim floor:
        # what was already dropped can never be shipped to it.
        log.register_follower("late")
        assert log.acked_for("late") == 1
        log.append_batch(small_batch(1))
        log.ack(2)  # default follower alone no longer trims
        assert len(log) == 1
        log.ack(2, follower="late")
        assert len(log) == 0

    def test_unknown_follower_reads_trim_floor(self):
        log = ReplicationLog()
        for i in range(3):
            log.append_batch(small_batch(i))
        assert log.acked_for("never-seen") == 0
        log.ack(2)
        assert log.acked_for("never-seen") == 2  # 1..2 already dropped

    def test_marker_records_round_trip(self):
        log = ReplicationLog()
        log.append_delete_before(500, exclude_suffix=".rollup")
        key = small_batch(0).keys[0]
        log.append_delete_series_before(key, 250)
        items = [decode_block(*decode_frame(f))
                 for _, f in log.pending_after(0)]
        assert items[0] == DeleteBefore(500, ".rollup")
        assert items[1] == DeleteSeriesBefore(key, 250)

    def test_append_segment_tees_a_wal_file(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            w.comment("spill header")
            w.write_batch(small_batch(1))
            w.delete_before(50)
            w.write_batch(small_batch(2))
        log = ReplicationLog()
        assert log.append_segment(path) == 3  # comments don't replicate
        replayed = replay_log(log.pending_after(0))
        assert dumps(replayed) == dumps(load(path))

    @pytest.mark.parametrize("strict", [True, False])
    def test_append_segment_refuses_a_non_segment(self, tmp_path, strict):
        """A spill segment tees records that a follower turns into the
        bare store, strict or lenient; the same bytes with a damaged
        magic are not a segment, so they raise and append nothing."""
        path = tmp_path / "spill-0.seg"
        bare = TSDB()
        with SegmentWriter(path) as w:
            for i in (1, 2, 3):
                w.write_batch(small_batch(i))
                bare.put_batch(small_batch(i))
                if i == 2:
                    w.delete_before(150)
                    bare.delete_before(150)
        log = ReplicationLog()
        assert log.append_segment(path, strict=strict) == 4
        follower = ship(ReplicatedStore(TSDB(), log), Follower())
        assert dumps(follower.store) == dumps(bare)
        damaged = tmp_path / "spill-1.seg"
        damaged.write_bytes(b"\x00" + path.read_bytes()[1:])
        log = ReplicationLog()
        with pytest.raises(SegmentCorruption, match="magic"):
            log.append_segment(damaged, strict=strict)
        assert log.last_seq == 0

    def test_append_segment_ships_region_spill_files(self, tmp_path):
        """A region lane's parked spill segments are directly shippable."""
        from repro.region.queue import AsyncBatchQueue, Backpressure

        q = AsyncBatchQueue(3, Backpressure.SPILL, spill_dir=tmp_path)
        for i in range(4):  # 4 batches x 2 points: overflows into spill
            assert q.offer(small_batch(i))
        spills = sorted(tmp_path.glob("spill-*.seg"))
        assert spills, "expected an overflow spill segment"
        log = ReplicationLog()
        teed = sum(log.append_segment(p) for p in spills)
        assert teed > 0
        spilled_points = sum(load(p).point_count for p in spills)
        assert log.appended_points == spilled_points


class TestReplicatedStore:
    def test_every_write_surface_tees_its_block(self):
        primary = ReplicatedStore(TSDB())
        primary.put("m", 10, 1.0, {"n": "a"})
        primary.put_batch(small_batch(1))
        primary.put_series("m", [30, 40], [3.0, 4.0], {"n": "b"})
        primary.delete_before(15)
        primary.delete_series_before(parse_series_key("m{n=b}"), 35)
        replayed = replay_log(primary.log.pending_after(0))
        assert dumps(replayed) == dumps(
            primary.wrapped
        )

    def test_reads_and_introspection_delegate(self):
        primary = ReplicatedStore(TSDB())
        primary.put_batch(small_batch(1))
        assert primary.point_count == 2
        assert primary.run(Query("air.co2.ppm", 0, 10_000)).series
        assert isinstance(primary.wrapped, TSDB)

    def test_empty_batch_is_not_logged(self):
        primary = ReplicatedStore(TSDB())
        primary.put_batch(PointBatch.empty())
        assert primary.log.last_seq == 0


# ---------------------------------------------------------------------------
# Socket-level harness
# ---------------------------------------------------------------------------

def ship(
    primary: ReplicatedStore,
    follower: Follower,
    *,
    plan: FaultPlan | None = None,
    ops=None,
    timeout: float = 20.0,
):
    """Run shipper → (optional FaultProxy) → follower on a private loop
    until the log is fully acknowledged; returns the follower."""

    async def _run():
        host, port = await follower.start()
        proxy = None
        if plan is not None:
            proxy = FaultProxy(host, port, plan)
            host, port = await proxy.start()
        shipper = SegmentShipper(primary.log, host, port, **FAST)
        shipper.start()
        try:
            if ops is not None:
                ops(primary)
            await shipper.wait_caught_up(timeout=timeout)
            await wait_applied(follower, primary.log.last_seq, timeout=timeout)
        finally:
            await shipper.stop()
            if proxy is not None:
                await proxy.stop()
            await follower.stop()

    asyncio.run(_run())
    return follower


class TestShipperFollower:
    @pytest.mark.parametrize("handed", [0, 3])  # 0: its own store
    def test_clean_path_equivalence(self, handed):
        """Into the follower's own store, or one it is handed — the
        frozen e2e hands it one."""
        primary = ReplicatedStore(TSDB())
        for i in range(8):
            primary.put_batch(small_batch(i))
        primary.delete_before(250)
        follower = ship(
            primary, Follower(store=TSDB()) if handed else Follower()
        )
        assert dumps(follower.store) == dumps(
            primary.wrapped
        )
        assert follower.stats.gaps == 0 and follower.stats.corrupt_frames == 0

    def test_catch_up_from_preloaded_log(self):
        """Follower connects late: everything replays from seq 1."""
        primary = ReplicatedStore(TSDB())
        for i in range(20):
            primary.put_batch(small_batch(i))
        follower = ship(primary, Follower())
        assert follower.applied_seq == 20
        assert dumps(follower.store) == dumps(primary.wrapped)

    def test_duplicates_are_acked_not_applied(self):
        primary = ReplicatedStore(TSDB())
        for i in range(10):
            primary.put_batch(small_batch(i))
        plan = FaultPlan(seed=3, p_dup=0.5)
        follower = ship(primary, Follower(), plan=plan)
        assert follower.stats.duplicates > 0
        assert follower.stats.records_applied == 10
        assert dumps(follower.store) == dumps(primary.wrapped)

    def test_reorder_forces_gap_and_heals(self):
        primary = ReplicatedStore(TSDB())
        for i in range(12):
            primary.put_batch(small_batch(i))
        plan = FaultPlan(seed=5, p_swap=0.4, max_faults=4)
        follower = ship(primary, Follower(), plan=plan)
        assert follower.stats.gaps > 0  # reordering was actually seen
        assert dumps(follower.store) == dumps(primary.wrapped)

    def test_a_batch_larger_than_one_record_ships_as_several(
        self, tmp_path, monkeypatch
    ):
        """The framing function never produces a block the follower
        would refuse: an oversize ``put_batch`` used to be shipped,
        refused as a corrupt frame, reconnected and re-sent forever."""
        monkeypatch.setattr(segments, "MAX_RECORD_BYTES", 512)
        primary = ReplicatedStore(TSDB())
        durable = DurableStore(primary, tmp_path / "wal.seg")
        b = BatchBuilder()
        for i in range(100):
            b.add("air.co2.ppm", 1000 - 3 * (i % 17), float(i), {"node": "abc"[i % 3]})
        durable.put_batch(b.build())
        durable.close()
        records = primary.log.last_seq
        assert records > 1
        follower = ship(primary, Follower(), timeout=5.0)
        assert follower.stats.as_dict() == {
            **FollowerStats().as_dict(),
            "connections": 1,
            "records_applied": records,
            "points_applied": 100,
        }
        state = dumps(primary.wrapped)
        assert dumps(follower.store) == state
        assert dumps(load(durable.wal_path)) == state

    def test_wait_caught_up_never_waits_past_its_deadline(self, monkeypatch):
        """The event's recheck interval is a safety net, not a floor: a
        short timeout bounds every wait — also before ``run()`` started."""
        log = ReplicationLog()
        log.append_batch(small_batch(0))
        waits = []
        wait_for = asyncio.wait_for

        def recording(aw, timeout):
            waits.append(timeout)
            return wait_for(aw, timeout)

        monkeypatch.setattr(asyncio, "wait_for", recording)

        async def _run():
            shipper = SegmentShipper(log, "127.0.0.1", 1, **FAST)  # never run
            with pytest.raises(TimeoutError, match="1 records behind"):
                await shipper.wait_caught_up(timeout=0.01)

        asyncio.run(_run())
        assert waits and all(0 < t <= 0.01 for t in waits)

    def test_the_handshake_is_counted_however_the_bytes_arrive(self):
        """Wrong magic, no bytes and half a magic are each one bad
        handshake and no connection; a magic cut across two reads is
        answered with the applied mark."""

        async def dial(follower, *chunks, reply=0):
            reader, writer = await asyncio.open_connection(
                follower.host, follower.port
            )
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                await asyncio.sleep(0.01)
            got = await reader.readexactly(reply) if reply else b""
            writer.close()
            await writer.wait_closed()
            return got

        async def _run():
            follower = Follower()
            await follower.start()
            await dial(follower, b"NOPE\x00\x01")
            await dial(follower)
            await dial(follower, REPLICATION_MAGIC[:3])
            assert follower.stats.connections == 0
            mark = await dial(
                follower, REPLICATION_MAGIC[:2], REPLICATION_MAGIC[2:], reply=8
            )
            assert mark == (0).to_bytes(8, "little")
            await asyncio.sleep(0.01)  # the last close reaches the follower
            await follower.stop()
            return follower

        follower = asyncio.run(_run())
        assert follower.stats.bad_handshakes == 3
        assert follower.stats.connections == 1
        assert follower.stats.torn_tails == 0

    def test_promote_freezes_the_store(self):
        primary = ReplicatedStore(TSDB())
        for i in range(5):
            primary.put_batch(small_batch(i))

        async def _run():
            follower = Follower()
            host, port = await follower.start()
            shipper = SegmentShipper(primary.log, host, port, **FAST)
            shipper.start()
            await shipper.wait_caught_up(timeout=10)
            store = follower.promote()
            frozen = dumps(store)
            primary.put_batch(small_batch(99))  # primary keeps writing
            await asyncio.sleep(0.05)
            assert dumps(store) == frozen
            assert follower.promote() is store  # idempotent
            await shipper.stop()
            await follower.stop()

        asyncio.run(_run())


# ---------------------------------------------------------------------------
# The fault-injection equivalence property
# ---------------------------------------------------------------------------

KEY_POOL = ("a", "b", "c")

# One op == one log record, so the follower's applied_seq indexes
# directly into the op list (the mid-kill prefix property needs this).
op_strategy = st.one_of(
    st.tuples(
        st.just("batch"),
        st.integers(0, 50),
        st.lists(st.sampled_from(KEY_POOL), min_size=1, max_size=3),
    ),
    st.tuples(st.just("del"), st.integers(0, 5_000)),
    st.tuples(
        st.just("delseries"), st.sampled_from(KEY_POOL), st.integers(0, 5_000)
    ),
)


def apply_op(store, op) -> None:
    if op[0] == "batch":
        _, i, nodes = op
        b = BatchBuilder()
        for j, node in enumerate(nodes):
            b.add("air.co2.ppm", 100 * i + j, float(i), {"node": node})
        store.put_batch(b.build())
    elif op[0] == "del":
        store.delete_before(op[1])
    else:
        store.delete_series_before(
            parse_series_key(f"air.co2.ppm{{node={op[1]}}}"), op[2]
        )


def build_reference(ops) -> TSDB:
    ref = TSDB()
    for op in ops:
        apply_op(ref, op)
    return ref


class TestFaultInjectionProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(op_strategy, min_size=1, max_size=25),
        seed=st.integers(0, 2**16),
        intensity=st.floats(0.0, 0.6),
    )
    def test_follower_identical_under_chaos(self, ops, seed, intensity):
        """After catch-up through a seeded chaos proxy, the follower is
        byte-identical to a from-scratch build of the full input."""
        primary = ReplicatedStore(TSDB())
        plan = FaultPlan.chaos(seed, intensity=intensity, max_faults=12)
        follower = ship(
            primary,
            Follower(),
            plan=plan,
            ops=lambda p: [apply_op(p, op) for op in ops],
        )
        reference = build_reference(ops)
        assert dumps(follower.store) == dumps(
            reference
        )
        assert dumps(primary.wrapped) == dumps(
            reference
        )
        # Zero acknowledged loss: nothing acked beyond what was applied.
        assert primary.log.acked_seq <= follower.applied_seq

    @settings(max_examples=10, deadline=None)
    @given(
        ops=st.lists(op_strategy, min_size=2, max_size=20),
        seed=st.integers(0, 2**16),
        kill_after=st.integers(0, 19),
    )
    def test_mid_stream_kill_promotes_a_clean_prefix(
        self, ops, seed, kill_after
    ):
        """Kill the primary's shipper mid-stream, promote the follower:
        its store equals a from-scratch build of exactly the eagerly
        applied op prefix — never a torn half-applied state — and no
        acknowledged record is lost."""
        primary = ReplicatedStore(TSDB())
        plan = FaultPlan.chaos(seed, intensity=0.3, max_faults=6)

        async def _run():
            follower = Follower()
            host, port = await follower.start()
            proxy = FaultProxy(host, port, plan)
            phost, pport = await proxy.start()
            shipper = SegmentShipper(primary.log, phost, pport, **FAST)
            task = shipper.start()
            try:
                for op in ops:
                    apply_op(primary, op)
                target = min(kill_after, len(ops))
                try:
                    await wait_applied(follower, target, timeout=10)
                except TimeoutError:  # pragma: no cover - fault-timing
                    pass
                # The kill: no graceful stop, the connection just dies.
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                await asyncio.sleep(0)  # let the follower see the close
                store = follower.promote()
                applied = follower.applied_seq
                await follower.stop()
                await proxy.stop()
                return store, applied

            finally:
                if not task.cancelled():
                    task.cancel()
                    await asyncio.gather(task, return_exceptions=True)

        store, applied = asyncio.run(_run())
        assert 0 <= applied <= len(ops)
        reference = build_reference(ops[:applied])
        assert dumps(store) == dumps(
            reference
        )
        # Zero acknowledged loss: every acked record survived promotion.
        assert primary.log.acked_seq <= applied


# ---------------------------------------------------------------------------
# Two-process failover through the CLI
# ---------------------------------------------------------------------------

class _LineReader:
    """Non-blocking line reader over a subprocess pipe."""

    def __init__(self, stream):
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.seen: list[str] = []
        self._thread = threading.Thread(
            target=self._pump, args=(stream,), daemon=True
        )
        self._thread.start()

    def _pump(self, stream):
        for raw in stream:
            self.lines.put(raw.decode(errors="replace").rstrip("\n"))
        self.lines.put("")  # EOF marker

    def expect(self, prefix: str, timeout: float = 20.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AssertionError(
                    f"no line starting with {prefix!r}; saw {self.seen!r}"
                )
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                raise AssertionError(
                    f"no line starting with {prefix!r}; saw {self.seen!r}"
                ) from None
            self.seen.append(line)
            if line.startswith(prefix):
                return line


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"), reason="needs SIGUSR1")
def test_two_process_failover(tmp_path):
    """End-to-end drill: a real ``repro follow`` process is fed by an
    in-test primary, promoted with SIGUSR1 mid-stream, serves queries
    over the standard endpoint, and exits cleanly on SIGTERM.  The
    served answer must equal the local primary's, and the promote-time
    snapshot must reload byte-identical."""
    from repro.serve import QueryClient

    repo_root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    snap_path = tmp_path / "promoted.seg"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "follow",
            "--listen", "127.0.0.1:0",
            "--serve-port", "0",
            "--snapshot-on-promote", str(snap_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=repo_root,
    )
    out = _LineReader(proc.stdout)
    try:
        line = out.expect("following on ")
        host, port = line.removeprefix("following on ").rsplit(":", 1)

        primary = ReplicatedStore(TSDB())
        for i in range(30):
            primary.put_batch(small_batch(i))
        primary.delete_before(400)

        async def _feed():
            shipper = SegmentShipper(primary.log, host, int(port), **FAST)
            shipper.start()
            await shipper.wait_caught_up(timeout=20)
            await shipper.stop()

        asyncio.run(_feed())

        proc.send_signal(signal.SIGUSR1)
        promoted = out.expect("promoted at seq ")
        assert promoted.startswith(f"promoted at seq {primary.log.last_seq}")
        out.expect("snapshot: ")
        serve_line = out.expect("serving on ")
        shost, sport = (
            serve_line.removeprefix("serving on ").rsplit(":", 1)
        )

        q = Query("air.co2.ppm", 0, 10_000, downsample="5m-avg")
        with QueryClient(shost, int(sport), deadline=15.0) as client:
            reply = client.request([q])
        from repro.tsdb import wire

        local = primary.wrapped.run(q)
        assert (
            reply["results"][0]["series"]
            == wire.encode_response([local])["results"][0]["series"]
        )

        # The promote-time snapshot reloads into the same bytes.
        assert dumps(load(snap_path)) == dumps(
            primary.wrapped
        )

        proc.send_signal(signal.SIGTERM)
        out.expect("bye")
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
