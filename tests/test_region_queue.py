"""AsyncBatchQueue invariants: bounded depth, backpressure accounting.

The queue is the load-bearing piece of the regional fan-in layer, so its
invariants are pinned both by direct scenarios and by hypothesis-driven
operation sequences:

- in-memory depth never exceeds capacity, for every policy;
- ``block`` refuses but never loses (conservation holds exactly);
- ``drop-oldest`` evictions are deterministic and exactly accounted;
- ``spill`` preserves global FIFO order across the disk boundary.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.region import AsyncBatchQueue, Backpressure
from repro.tsdb import PointBatch, SegmentWriter
from repro.tsdb.segments import SEGMENT_MAGIC


def make_batch(start_ts: int, n: int, metric: str = "air.co2.ppm") -> PointBatch:
    """A batch of ``n`` consecutive-timestamp points for one series."""
    ts = np.arange(start_ts, start_ts + n, dtype=np.int64)
    return PointBatch.for_series(metric, ts, np.full(n, 1.0), {"node": "n1"})


def drained_timestamps(batch: PointBatch) -> list[int]:
    return batch.timestamps.tolist()


class TestConstruction:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AsyncBatchQueue(0)

    def test_spill_requires_dir(self):
        with pytest.raises(ValueError, match="spill_dir"):
            AsyncBatchQueue(10, Backpressure.SPILL)

    def test_policy_coercion_from_string(self):
        q = AsyncBatchQueue(10, "drop-oldest")
        assert q.policy is Backpressure.DROP_OLDEST
        with pytest.raises(ValueError, match="unknown backpressure"):
            AsyncBatchQueue(10, "drop-newest")


class TestFifo:
    def test_offer_then_drain_preserves_order(self):
        q = AsyncBatchQueue(100)
        q.offer(make_batch(0, 10))
        q.offer(make_batch(10, 10))
        q.offer(make_batch(20, 10))
        out = q.drain()
        assert drained_timestamps(out) == list(range(30))
        assert q.is_empty()

    def test_drain_limit_is_batch_granular_but_progresses(self):
        q = AsyncBatchQueue(100)
        q.offer(make_batch(0, 40))
        q.offer(make_batch(40, 40))
        first = q.drain(max_points=10)  # takes the whole first batch
        assert len(first) == 40
        assert q.depth_points == 40
        assert len(q.drain(max_points=10)) == 40
        assert q.drain().is_empty()

    def test_empty_offer_and_empty_drain(self):
        q = AsyncBatchQueue(10)
        assert q.offer(PointBatch.empty())
        assert q.drain().is_empty()
        assert q.stats.flushes == 0


class TestBlock:
    def test_refuses_when_full_and_loses_nothing(self):
        q = AsyncBatchQueue(25, Backpressure.BLOCK)
        assert q.offer(make_batch(0, 20))
        assert not q.offer(make_batch(20, 10))  # would exceed 25
        assert q.stats.refused_offers == 1
        assert q.stats.refused_points == 10
        assert q.depth_points == 20  # unchanged
        # After draining, the refused batch fits.
        q.drain()
        assert q.offer(make_batch(20, 10))
        assert drained_timestamps(q.drain()) == list(range(20, 30))
        assert q.stats.dropped_points == 0

    def test_depth_never_exceeds_capacity(self):
        q = AsyncBatchQueue(50, Backpressure.BLOCK)
        ts = 0
        for n in (30, 30, 20, 50, 1):
            q.offer(make_batch(ts, n))
            ts += n
            assert q.depth_points <= 50


class TestDropOldest:
    def test_evicts_oldest_rows_with_exact_accounting(self):
        q = AsyncBatchQueue(25, Backpressure.DROP_OLDEST)
        q.offer(make_batch(0, 10))
        q.offer(make_batch(10, 10))
        q.offer(make_batch(20, 10))  # evicts exactly 5 rows, not a batch
        assert q.depth_points == 25  # row-granular: filled to the brim
        assert q.stats.dropped_points == 5
        assert q.stats.dropped_batches == 0  # boundary batch was trimmed
        assert drained_timestamps(q.drain()) == list(range(5, 30))

    def test_evicts_whole_batches_when_needed(self):
        q = AsyncBatchQueue(25, Backpressure.DROP_OLDEST)
        q.offer(make_batch(0, 10))
        q.offer(make_batch(10, 10))
        q.offer(make_batch(20, 22))  # needs 17 rows: one batch + 7 rows
        assert q.depth_points == 25
        assert q.stats.dropped_points == 17
        assert q.stats.dropped_batches == 1
        assert drained_timestamps(q.drain()) == list(range(17, 42))

    def test_oversized_batch_keeps_newest_rows(self):
        q = AsyncBatchQueue(10, Backpressure.DROP_OLDEST)
        q.offer(make_batch(0, 5))
        q.offer(make_batch(100, 25))  # alone exceeds capacity
        assert q.depth_points == 10
        # Queued rows are exactly the newest 10 of the oversized batch.
        assert drained_timestamps(q.drain()) == list(range(115, 125))
        assert q.stats.dropped_points == 5 + 15

    def test_newest_data_always_survives(self):
        q = AsyncBatchQueue(30, Backpressure.DROP_OLDEST)
        ts = 0
        for _ in range(20):
            q.offer(make_batch(ts, 10))
            ts += 10
        survivors = drained_timestamps(q.drain())
        assert survivors == list(range(170, 200))  # the newest 30


class TestSpill:
    def test_overflow_spills_and_recovers_in_order(self, tmp_path):
        q = AsyncBatchQueue(25, Backpressure.SPILL, spill_dir=tmp_path / "sp")
        q.offer(make_batch(0, 10))
        q.offer(make_batch(10, 10))
        q.offer(make_batch(20, 10))  # spills the first batch to disk
        assert q.depth_points == 20
        assert q.spill_pending_points == 10
        assert q.stats.spilled_points == 10
        out = q.drain()
        assert drained_timestamps(out) == list(range(30))  # global FIFO kept
        assert q.stats.recovered_points == 10
        assert q.is_empty()
        assert list((tmp_path / "sp").iterdir()) == []  # segments consumed

    def test_spill_preserves_values_and_tags_exactly(self, tmp_path):
        q = AsyncBatchQueue(3, Backpressure.SPILL, spill_dir=tmp_path)
        ts = np.array([5, 6, 7], dtype=np.int64)
        vals = np.array([1.25, -3.5e-7, 4e12])
        q.offer(PointBatch.for_series("air.no2.ugm3", ts, vals, {"city": "vejle"}))
        q.offer(make_batch(100, 3))  # pushes the first batch to disk
        out = q.drain()
        assert out.timestamps.tolist() == [5, 6, 7, 100, 101, 102]
        np.testing.assert_array_equal(out.values[:3], vals)
        assert out.keys[0].tag("city") == "vejle"

    def test_leftover_segments_adopted_on_restart(self, tmp_path):
        """Crash recovery: a new queue over a reused spill_dir drains the
        previous process's segments first, never appending to them."""
        q1 = AsyncBatchQueue(10, Backpressure.SPILL, spill_dir=tmp_path)
        q1.offer(make_batch(0, 10))
        q1.offer(make_batch(10, 10))  # first batch spills to disk
        assert q1.spill_pending_points == 10
        del q1  # "crash": segment file stays behind, queue never drained

        q2 = AsyncBatchQueue(10, Backpressure.SPILL, spill_dir=tmp_path)
        assert q2.spill_pending_points == 10  # adopted, not clobbered
        q2.offer(make_batch(100, 10))  # reuses the dir without collision
        q2.offer(make_batch(110, 10))
        out = []
        while not q2.is_empty():
            out.extend(drained_timestamps(q2.drain()))
        assert out[:10] == list(range(10))  # oldest (adopted) rows first
        assert out[10:] == list(range(100, 120))
        # Conservation still holds with the adopted rows counted in.
        assert q2.stats.accepted_points == q2.stats.drained_points == 30
        assert list(tmp_path.iterdir()) == []

    def test_oversized_batch_spills_wholesale(self, tmp_path):
        q = AsyncBatchQueue(10, Backpressure.SPILL, spill_dir=tmp_path)
        q.offer(make_batch(0, 25))
        assert q.depth_points == 0
        assert q.spill_pending_points == 25
        assert drained_timestamps(q.drain()) == list(range(25))

    def test_spill_segments_are_binary(self, tmp_path):
        """Spill writes columnar segments."""
        q = AsyncBatchQueue(10, Backpressure.SPILL, spill_dir=tmp_path)
        q.offer(make_batch(0, 10))
        q.offer(make_batch(10, 10))  # first batch spills
        (seg,) = list(tmp_path.iterdir())
        assert seg.suffix == ".seg"
        assert seg.read_bytes().startswith(SEGMENT_MAGIC)

    def test_binary_leftover_segments_adopted_on_restart(self, tmp_path):
        """Crash recovery in the binary format: a new queue adopts the
        previous process's .seg spill files and drains them first."""
        q1 = AsyncBatchQueue(10, Backpressure.SPILL, spill_dir=tmp_path)
        q1.offer(make_batch(0, 10))
        q1.offer(make_batch(10, 10))  # spills batch 0 as a .seg segment
        assert q1.spill_pending_points == 10
        del q1  # "crash"

        q2 = AsyncBatchQueue(10, Backpressure.SPILL, spill_dir=tmp_path)
        assert q2.spill_pending_points == 10
        q2.offer(make_batch(100, 10))
        out = []
        while not q2.is_empty():
            out.extend(drained_timestamps(q2.drain()))
        assert out[:10] == list(range(10))  # adopted rows replay first
        assert out[10:] == list(range(100, 110))
        assert q2.stats.accepted_points == q2.stats.drained_points == 20
        assert list(tmp_path.iterdir()) == []

    def test_torn_leftover_segment_adopts_clean_prefix(self, tmp_path):
        """A spill segment damaged by the crash itself must not kill
        lane construction; exactly what lenient recovery reads is
        adopted and drains — a torn tail or a corrupted length field
        keeps the clean prefix, a CRC-flipped middle block loses that
        block alone — and conservation stays exact."""
        for damage, surviving_blocks in (
            ("torn-tail", [0, 1]),
            ("torn-first-block", []),  # nothing recoverable: file dropped
            ("crc-flip", [0, 2]),
            ("length-field", [0]),
        ):
            spill = tmp_path / damage
            spill.mkdir()
            seg0 = spill / "spill-00000000.seg"
            with SegmentWriter(seg0) as w:  # three identical-size blocks
                for b in range(3):
                    w.write_batch(make_batch(10 * b, 10))
            with SegmentWriter(spill / "spill-00000001.seg") as w:
                w.write_batch(make_batch(30, 10))  # the intact successor
            raw = bytearray(seg0.read_bytes())
            block = (len(raw) - len(SEGMENT_MAGIC)) // 3
            middle = len(SEGMENT_MAGIC) + block
            if damage == "torn-tail":
                del raw[-5:]
            elif damage == "torn-first-block":
                del raw[len(SEGMENT_MAGIC) + block // 2 :]
            elif damage == "crc-flip":
                raw[middle + 20] ^= 0xFF  # payload byte
            else:
                raw[middle + 2] ^= 0x40  # length field
            seg0.write_bytes(bytes(raw))

            q = AsyncBatchQueue(10, Backpressure.SPILL, spill_dir=spill)
            expected = [
                t for b in surviving_blocks for t in range(10 * b, 10 * b + 10)
            ] + list(range(30, 40))
            assert q.spill_pending_points == len(expected)
            out = []
            while not q.is_empty():
                out.extend(drained_timestamps(q.drain()))
            assert out == expected
            assert q.stats.accepted_points == (
                q.stats.drained_points
                + q.stats.dropped_points
                + q.depth_points
                + q.spill_pending_points
            )
            assert q.stats.offered_points == (
                q.stats.accepted_points + q.stats.refused_points
            )
            assert q.stats.drained_points == len(expected)
            assert list(spill.iterdir()) == []

    def test_unrelated_files_in_spill_dir_are_ignored(self, tmp_path):
        """Files not matching the spill-<seq>.seg naming (operator
        backups, editor droppings, a ``.log`` of another format) must not
        crash lane construction or be adopted/deleted."""
        (tmp_path / "spill-backup.log").write_text("m 1 2.0\n")
        (tmp_path / "spill-00000000.log").write_text("m 1 2.0\n")
        (tmp_path / "notes.txt").write_text("keep me\n")
        q = AsyncBatchQueue(10, Backpressure.SPILL, spill_dir=tmp_path)
        assert q.spill_pending_points == 0
        q.offer(make_batch(0, 10))
        q.offer(make_batch(10, 10))  # spills
        while not q.is_empty():
            q.drain()
        survivors = {p.name for p in tmp_path.iterdir()}
        assert survivors == {"spill-backup.log", "spill-00000000.log", "notes.txt"}

    def test_wrong_magic_segment_is_left_in_place(self, tmp_path):
        """A ``spill-<seq>.seg`` whose magic is damaged is not a segment:
        it is neither adopted nor deleted, its seq is never reused, the
        lane still constructs and conservation holds.  A file cut short
        inside the magic (a crash at creation) holds nothing and is
        dropped."""
        q1 = AsyncBatchQueue(8, Backpressure.SPILL, spill_dir=tmp_path)
        q1.offer(make_batch(0, 8))
        q1.offer(make_batch(8, 8))  # spills 8 points as spill-00000000.seg
        del q1  # "crash"
        damaged = tmp_path / "spill-00000000.seg"
        raw = bytearray(damaged.read_bytes())
        raw[0] ^= 0xFF
        damaged.write_bytes(bytes(raw))
        (tmp_path / "spill-00000001.seg").write_bytes(b"")
        (tmp_path / "spill-00000002.seg").write_bytes(SEGMENT_MAGIC[:3])

        q = AsyncBatchQueue(8, Backpressure.SPILL, spill_dir=tmp_path)
        assert q.spill_pending_points == 0
        assert q.stats.offered_points == q.stats.accepted_points == 0
        assert [p.name for p in tmp_path.iterdir()] == [damaged.name]
        q.offer(make_batch(100, 8))
        q.offer(make_batch(108, 8))  # spills under a fresh seq
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "spill-00000000.seg", "spill-00000003.seg",
        ]
        out = []
        while not q.is_empty():
            out.extend(drained_timestamps(q.drain()))
        assert out == list(range(100, 116))
        assert q.stats.accepted_points == (
            q.stats.drained_points
            + q.stats.dropped_points
            + q.depth_points
            + q.spill_pending_points
        )
        assert damaged.read_bytes() == bytes(raw)
        assert [p.name for p in tmp_path.iterdir()] == [damaged.name]


# -- hypothesis: invariants under arbitrary operation sequences ----------
ops = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.integers(min_value=0, max_value=60)),
        st.tuples(st.just("drain"), st.integers(min_value=1, max_value=80)),
    ),
    min_size=1,
    max_size=40,
)
policies = st.sampled_from(list(Backpressure))


@given(ops, policies, st.integers(min_value=1, max_value=50))
@settings(max_examples=120, deadline=None)
def test_queue_invariants_hold_under_any_op_sequence(op_seq, policy, capacity):
    with tempfile.TemporaryDirectory() as tmp:
        q = AsyncBatchQueue(
            capacity,
            policy,
            spill_dir=Path(tmp) if policy is Backpressure.SPILL else None,
        )
        next_ts = 0
        offered: list[int] = []
        drained: list[int] = []
        held_back = 0  # points refused under block (kept by the producer)
        for op, arg in op_seq:
            if op == "offer":
                batch = make_batch(next_ts, arg)
                accepted = q.offer(batch)
                if accepted:
                    offered.extend(range(next_ts, next_ts + arg))
                else:
                    assert policy is Backpressure.BLOCK
                    held_back += arg
                next_ts += arg
            else:
                drained.extend(drained_timestamps(q.drain(max_points=arg)))
            # Bounded depth: the core invariant, every policy, all times.
            assert q.depth_points <= capacity

        # Exact conservation of accepted points.
        assert q.stats.accepted_points == (
            q.stats.drained_points
            + q.stats.dropped_points
            + q.depth_points
            + q.spill_pending_points
        )
        assert q.stats.offered_points == q.stats.accepted_points + q.stats.refused_points
        if policy is not Backpressure.DROP_OLDEST:
            assert q.stats.dropped_points == 0
        if policy is not Backpressure.BLOCK:
            assert q.stats.refused_points == 0

        remaining = drained_timestamps(q.drain())
        seen = drained + remaining
        if policy is Backpressure.DROP_OLDEST:
            # Whatever survived is a subsequence of what went in, in order.
            assert seen == sorted(seen)
            assert set(seen) <= set(offered)
            assert len(seen) == len(offered) - q.stats.dropped_points
        else:
            # block / spill: every accepted point comes out, in order.
            assert seen == offered
