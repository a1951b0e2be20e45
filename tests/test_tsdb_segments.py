"""Columnar segment persistence: codec, equivalence, recovery.

The segment format is the one durable format; this suite pins it:

- the batch/marker codec round-trips bit-exactly (hypothesis: arbitrary
  metrics, tags, out-of-order timestamps, duplicate keys, NaN values);
- a store restored from a WAL/snapshot is byte-identical (via
  ``dumps``) to the live store that wrote it, with interleaved
  retention markers;
- per-block CRCs turn corruption into per-block loss under
  ``strict=False`` and loud failure under ``strict=True``; a wrong
  magic is not a segment and is refused either way, never rewritten;
- the dataport WAL hook replays losslessly;
- no reader, writer or option of a second format comes back.
"""

import io
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.dataport import BatchingTsdbWriter
from repro.tsdb import (
    BatchBuilder,
    DataPoint,
    DurableStore,
    PointBatch,
    Query,
    SegmentCorruption,
    SegmentWriter,
    SeriesKey,
    TSDB,
    compact_log,
    dumps,
    load,
    snapshot,
)
from repro.tsdb.persistence import DeleteBefore, DeleteSeriesBefore
from repro.tsdb.segments import (
    SEGMENT_MAGIC,
    carried_frames,
    decode_batch,
    encode_batch,
    frame_batch,
    iter_segments,
    parse_series_key,
    segment_point_count,
)
from test_tsdb_batch import arrival_feed, feed_flushes


def make_point(metric="m", ts=100, val=1.5, tags=None):
    return DataPoint.make(metric, ts, val, tags or {"node": "a"})


def sources(path):
    """The two kinds of source every reader accepts — the path and a
    binary handle over the same bytes — so each corruption case runs on
    both (one walker serves them; production readers pass paths)."""
    yield path
    yield io.BytesIO(path.read_bytes())


def mixed_batch() -> PointBatch:
    """Two series, interleaved rows, out-of-order + duplicate timestamps."""
    b = BatchBuilder()
    for ts, val in ((30, 1.0), (10, 2.0), (10, 3.0), (20, float("nan"))):
        b.add("air.co2.ppm", ts, val, {"node": "n1", "city": "trondheim"})
        b.add("plain", ts + 1, -val)
    return b.build()


def assert_batches_equal(a: PointBatch, b: PointBatch) -> None:
    """Bit-exact equality: keys, dictionary indices, columns (NaN-safe)."""
    assert a.keys == b.keys
    assert np.array_equal(a.key_idx, b.key_idx)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert a.values.tobytes() == b.values.tobytes()


def stored_timestamps(db) -> list[int]:
    """Every stored timestamp, series by series, time-sorted within each."""
    return [int(t) for _, sl in db.iter_series() for t in sl.timestamps]


class TestCodec:
    def test_batch_round_trip(self):
        batch = mixed_batch()
        assert_batches_equal(decode_batch(encode_batch(batch)), batch)

    def test_empty_batch_round_trip(self):
        assert len(decode_batch(encode_batch(PointBatch.empty()))) == 0

    def test_delta_column_is_the_diff_with_a_leading_zero(self):
        """delta[0] = ts[0], int64 wrap-around included — the bytes
        ``np.diff(ts, prepend=0)`` would give."""
        ts = np.array([5, 3, 3, 2**62, -(2**62), 7, -9], dtype=np.int64)
        batch = PointBatch(
            (SeriesKey.make("m"),), np.zeros(7, np.intp), ts, np.arange(7.0)
        )
        payload = encode_batch(batch)
        head = len(payload) - 20 * 7
        assert payload[head + 28 : head + 84] == (
            np.diff(ts, prepend=np.int64(0)).astype("<i8").tobytes()
        )
        assert_batches_equal(decode_batch(payload), batch)

    def test_decoded_keys_are_interned(self):
        payload = encode_batch(mixed_batch())
        first, again = decode_batch(payload), decode_batch(payload)
        assert all(a is b for a, b in zip(first.keys, again.keys))
        assert first.keys == mixed_batch().keys

    def test_a_carry_drops_only_its_own_frames_and_never_raises(self):
        """One batch object put into two stacks from two threads can
        race the carry; the ``finally`` runs after the write committed,
        so it must not turn a finished write into a failure."""
        batch = mixed_batch()
        with carried_frames(batch):
            del vars(batch)["_frames"]  # the other stack's finally ran first
        other = frame_batch(batch)
        with carried_frames(batch):
            vars(batch)["_frames"] = other  # the other stack's set ran last
        assert vars(batch).pop("_frames") is other  # theirs to drop

    def test_parse_series_key_round_trip(self):
        for key in mixed_batch().keys:
            assert parse_series_key(str(key)) == key

    def test_parse_series_key_rejects_garbage(self):
        for bad in ("m{node", "m{node:a}", "m{=a}", "{a=b}", "bad name"):
            with pytest.raises(ValueError):
                parse_series_key(bad)

    def test_decode_rejects_short_columns(self):
        payload = encode_batch(mixed_batch())
        with pytest.raises(ValueError, match="column bytes"):
            decode_batch(payload[:-8])


class TestSegmentWriterAndReader:
    def test_wal_round_trip(self, tmp_path):
        path = tmp_path / "wal.seg"
        batch = mixed_batch()
        with SegmentWriter(path) as w:
            w.comment("header")
            w.write_batch(batch)
        assert w.written == len(batch)
        items = list(iter_segments(path))
        assert len(items) == 1  # comments are skipped
        assert_batches_equal(items[0], batch)
        assert segment_point_count(path) == len(batch)

    def test_append_mode(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            w.write_batch(mixed_batch())
        with SegmentWriter(path) as w:
            w.write_batch(mixed_batch())
        assert sum(len(b) for b in iter_segments(path)) == 2 * len(mixed_batch())

    def test_refuses_to_append_to_text_log(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("m 1 2.0\n")
        with pytest.raises(SegmentCorruption, match="not a segment file"):
            SegmentWriter(path)

    def test_marker_blocks_interleave_in_order(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            w.write_batch(PointBatch.from_points([make_point(ts=1)]))
            w.delete_before(5, exclude_suffix=".rollup")
            w.write_batch(PointBatch.from_points([make_point(ts=9)]))
        items = list(iter_segments(path))
        assert [type(i).__name__ for i in items] == [
            "PointBatch", "DeleteBefore", "PointBatch",
        ]
        assert items[1] == DeleteBefore(5, ".rollup")
        assert w.written == 2  # markers are not points

    def test_reader_requires_magic(self, tmp_path):
        path = tmp_path / "not-a-segment.seg"
        path.write_text("m 1 2.0\n")
        for source in sources(path):
            with pytest.raises(SegmentCorruption, match="magic"):
                list(iter_segments(source))
        # ... even in lenient mode: a wrong format is not a damaged file.
        for source in sources(path):
            with pytest.raises(SegmentCorruption, match="magic"):
                list(iter_segments(source, strict=False))


class TestCorruptionRecovery:
    def three_block_file(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            for base in (0, 100, 200):
                w.write_batch(
                    PointBatch.from_points([make_point(ts=base + i) for i in range(5)])
                )
        return path

    def corrupt_middle_block(self, path):
        raw = bytearray(path.read_bytes())
        # Blocks are identical size; flip a payload byte in the middle one.
        block = (len(raw) - len(SEGMENT_MAGIC)) // 3
        raw[len(SEGMENT_MAGIC) + block + 20] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_corrupt_block_raises_strict(self, tmp_path):
        path = self.three_block_file(tmp_path)
        self.corrupt_middle_block(path)
        for source in sources(path):
            with pytest.raises(SegmentCorruption, match="checksum"):
                list(iter_segments(source))

    def test_corrupt_block_skipped_lenient(self, tmp_path):
        """The length prefix bounds the damage: one bad CRC loses one
        block, and the blocks after it still replay."""
        path = self.three_block_file(tmp_path)
        self.corrupt_middle_block(path)
        for source in sources(path):
            items = list(iter_segments(source, strict=False))
            assert [b.timestamps.min() for b in items] == [0, 200]
        for source in sources(path):
            assert load(source, strict=False).point_count == 10

    def test_truncated_tail_recovery(self, tmp_path):
        """Unclean shutdown: a half-written final block is dropped, the
        clean prefix replays — mirroring the text protocol's contract."""
        path = self.three_block_file(tmp_path)
        raw = path.read_bytes()
        for cut in (1, 7, 15):  # mid-payload, mid-header
            path.write_bytes(raw[:-cut])
            for source in sources(path):
                with pytest.raises(SegmentCorruption, match="truncated"):
                    list(iter_segments(source))
            for source in sources(path):
                assert load(source, strict=False).point_count == 10

    def test_corrupted_length_field_keeps_clean_prefix(self, tmp_path):
        """Header damage is CRC-detected; a bogus length can't be
        trusted for framing, so lenient recovery keeps every block
        before the damage (like a truncated tail) — never garbage."""
        path = self.three_block_file(tmp_path)
        raw = bytearray(path.read_bytes())
        block = (len(raw) - len(SEGMENT_MAGIC)) // 3
        raw[len(SEGMENT_MAGIC) + block + 2] ^= 0x40  # length field, block 2
        path.write_bytes(bytes(raw))
        for source in sources(path):
            with pytest.raises(SegmentCorruption):
                list(iter_segments(source))
        for source in sources(path):
            recovered = load(source, strict=False)
            assert recovered.point_count == 5  # block 1 survives
            assert sorted(stored_timestamps(recovered)) == list(range(5))

    def test_append_after_torn_tail_truncates_and_stays_readable(self, tmp_path):
        """Reopening a WAL whose last block was torn by a crash must
        drop the torn tail before appending — the format has no resync
        marker, so blocks written after torn bytes would otherwise be
        swallowed by the partial block's length prefix."""
        path = self.three_block_file(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # torn mid-payload
        with SegmentWriter(path) as w:  # restart: append mode
            w.write_batch(
                PointBatch.from_points([make_point(ts=500 + i) for i in range(5)])
            )
        db = load(path)  # strict: the file is clean again
        assert db.point_count == 15  # 2 clean blocks + 5 new
        assert sorted(stored_timestamps(db))[-1] == 504

    def test_corrupt_magic_recovers_without_decode_crash(self, tmp_path):
        """A damaged magic makes the file not a segment: replay raises
        SegmentCorruption naming the magic (never a decode crash, never
        an empty store), strict or lenient, and neither compaction nor
        ``repro compact --lenient`` rewrites the file."""
        path = self.three_block_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        for strict in (True, False):
            with pytest.raises(SegmentCorruption, match="magic"):
                load(path, strict=strict)
            with pytest.raises(SegmentCorruption, match="magic"):
                compact_log(path, strict=strict)
        with pytest.raises(SystemExit, match="magic"):
            cli_main(["compact", "--lenient", str(path)])
        assert path.read_bytes() == bytes(raw)

    def test_corrupt_magic_binary_handle_recovers_too(self):
        """The same contract holds for a binary-mode *handle*, not just
        a path: a wrong magic raises, strict or lenient, and tees
        nothing into a replication log."""
        from repro.replication import ReplicationLog

        db = TSDB()
        db.put("m", 1, 2.0)
        blob = bytearray(dumps(db))
        blob[0] ^= 0xFF
        log = ReplicationLog()
        for strict in (True, False):
            with pytest.raises(SegmentCorruption, match="magic"):
                load(io.BytesIO(bytes(blob)), strict=strict)
            with pytest.raises(SegmentCorruption, match="magic"):
                log.append_segment(io.BytesIO(bytes(blob)), strict=strict)
        assert log.last_seq == 0

    def test_wal_write_failure_rolls_back_torn_frame(self, tmp_path):
        """A write that dies mid-frame (disk full) must not leave torn
        bytes: a retried append afterwards stays fully replayable."""
        path = tmp_path / "wal.seg"
        w = SegmentWriter(path)
        w.write_batch(mixed_batch())

        real_write = w._fh.write

        def failing_write(data):
            real_write(data[: len(data) // 2])  # torn: half the frame lands
            raise OSError(28, "No space left on device")

        w._fh.write = failing_write
        with pytest.raises(OSError):
            w.write_batch(mixed_batch())
        # The torn frame was rolled back; appends after the failure replay.
        w.write_batch(mixed_batch())
        w.close()
        items = list(iter_segments(path))  # strict: file is clean
        assert sum(len(b) for b in items) == 2 * len(mixed_batch())

    def test_empty_file_is_not_a_segment(self, tmp_path):
        """A 0-byte file (a crash before the magic landed) is not a
        segment: every read raises, strict or lenient, and compaction
        leaves it as it is."""
        path = tmp_path / "empty.seg"
        path.touch()
        for strict in (True, False):
            for source in sources(path):
                with pytest.raises(SegmentCorruption, match="magic"):
                    list(iter_segments(source, strict=strict))
            for source in sources(path):
                with pytest.raises(SegmentCorruption, match="magic"):
                    load(source, strict=strict)
            with pytest.raises(SegmentCorruption, match="magic"):
                compact_log(path, strict=strict)
        assert path.read_bytes() == b""


def reference_ops(db):
    """A workload with out-of-order rows, overwrites, and interleaved
    retention — applied identically to live stores and WALs."""
    for i in range(60):
        db.put(f"m.{i % 4}", (i * 7) % 50, float(i), {"node": f"n{i % 3}"})
    db.delete_before(20)
    for i in range(20):
        db.put("m.0", 5 + i, -float(i), {"node": "n9"})
    db.delete_before(8, exclude_suffix=".rollup")


def write_reference_wal(writer) -> None:
    """The same workload as :func:`reference_ops`, as a WAL stream: one
    batch per run of puts, a marker per deletion."""
    writer.write_batch(
        PointBatch.from_points(
            DataPoint.make(f"m.{i % 4}", (i * 7) % 50, float(i), {"node": f"n{i % 3}"})
            for i in range(60)
        )
    )
    writer.delete_before(20)
    writer.write_batch(
        PointBatch.from_points(
            DataPoint.make("m.0", 5 + i, -float(i), {"node": "n9"}) for i in range(20)
        )
    )
    writer.delete_before(8, exclude_suffix=".rollup")


class TestFormatEquivalence:
    def test_wal_replay_matches_live(self, tmp_path):
        live = TSDB()
        reference_ops(live)
        with SegmentWriter(tmp_path / "wal.seg") as w:
            write_reference_wal(w)
        assert dumps(load(tmp_path / "wal.seg")) == dumps(live)

    @pytest.mark.parametrize("shards", [1, 3, 7])  # a retired layout's ids
    def test_replay_into_sharded_store(self, tmp_path, shards):
        with SegmentWriter(tmp_path / "wal.seg") as w:
            write_reference_wal(w)
        single = load(tmp_path / "wal.seg")
        into = load(tmp_path / "wal.seg", into=TSDB())
        assert dumps(into) == dumps(single)
        assert into.metrics() == single.metrics()

    @pytest.mark.parametrize("shards", [1, 2, 4])  # a retired layout's ids
    def test_sharded_snapshot_round_trip(self, tmp_path, shards):
        db = TSDB()
        reference_ops(db)
        snapshot(db, tmp_path / "snap.seg")
        restored = load(tmp_path / "snap.seg", into=TSDB())
        assert dumps(restored) == dumps(db)
        # iter_series order is canonical: a function of the data alone.
        assert [str(k) for k, _ in restored.iter_series()] == [
            str(k) for k, _ in db.iter_series()
        ]

    def test_feed_flushes_replay_and_restore_equal_live(self, tmp_path):
        """The city feed's flushes appended to a WAL replay to the store
        the live process built from them, and a snapshot of that store
        counts its points and restores it."""
        series_idx, ts, values = arrival_feed(rows_per_series=200)
        db = TSDB()
        with SegmentWriter(tmp_path / "wal.seg") as w:
            for batch in feed_flushes(series_idx, ts, values, flush=2_000):
                w.write_batch(batch)
                db.put_batch(batch)
        assert dumps(load(tmp_path / "wal.seg")) == dumps(db)
        assert snapshot(db, tmp_path / "snap.seg") == db.point_count
        assert dumps(load(tmp_path / "snap.seg")) == dumps(db)

    def test_failed_resnapshot_preserves_prior_snapshot(self, tmp_path, monkeypatch):
        """A snapshot that fails part-way (disk full, a store that
        raises mid-iteration) leaves the previous snapshot whole and
        restorable, and no ``.tmp`` behind."""
        db = TSDB()
        reference_ops(db)
        path = tmp_path / "snap.seg"
        snapshot(db, path)
        prior = path.read_bytes()
        want = dumps(load(path))
        db.put("m.late", 1, 1.0)  # the next snapshot would differ
        series = db.iter_series

        def failing_iter_series(*args):
            for i, item in enumerate(series(*args)):
                if i == 2:
                    raise OSError(28, "No space left on device")
                yield item

        monkeypatch.setattr(db, "iter_series", failing_iter_series)
        with pytest.raises(OSError):
            snapshot(db, path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == prior
        assert dumps(load(path)) == want

    def test_resnapshot_with_other_shard_count_replaces_stale_files(self, tmp_path):
        """Re-snapshotting another store over a snapshot replaces it
        whole: one file, the new store's."""
        big = TSDB()
        reference_ops(big)
        big.put("m.big", 1, 1.0)
        path = tmp_path / "snap.seg"
        snapshot(big, path)
        small = TSDB()
        reference_ops(small)
        snapshot(small, path)
        assert list(tmp_path.iterdir()) == [path]
        assert dumps(load(path)) == dumps(small)

    def test_resnapshot_in_other_format_replaces_stale_twins(self, tmp_path):
        """A crashed snapshot's torn ``.tmp`` staging file is not
        trusted: the next snapshot writes over it and renames it into
        place, leaving the one snapshot file."""
        db = TSDB()
        reference_ops(db)
        path = tmp_path / "snap.seg"
        snapshot(db, path)
        (tmp_path / "snap.seg.tmp").write_bytes(b"torn")
        snapshot(db, path)
        assert list(tmp_path.iterdir()) == [path]
        assert dumps(load(path)) == dumps(db)

    def test_snapshot_queries_match_live(self, tmp_path):
        db = TSDB()
        reference_ops(db)
        snapshot(db, tmp_path / "s.seg")
        q = Query("m.0", 0, 100, tags={"node": "*"}, downsample="10s-avg")
        a = db.run(q).single()
        b = load(tmp_path / "s.seg").run(q).single()
        assert np.array_equal(a.timestamps, b.timestamps)
        assert a.values.tobytes() == b.values.tobytes()

    def test_dumps_binary_round_trip(self):
        db = TSDB()
        reference_ops(db)
        blob = dumps(db)
        assert isinstance(blob, bytes) and blob.startswith(SEGMENT_MAGIC)
        assert dumps(load(io.BytesIO(blob))) == dumps(db)

    def test_iter_batches_text_chunks_at_markers(self, tmp_path):
        """The journal of a durable store splits its points at each
        retention call: the marker block sits between the batches written
        before and after it, and the WAL replays to the live state."""
        live = TSDB()
        store = DurableStore(TSDB(), tmp_path / "wal.seg")
        for db in (live, store):
            db.put("m", 1, 1.0, {"node": "a"})
            db.put("m", 3, 3.0, {"node": "a"})
            db.delete_before(2)
            db.put("m", 2, 2.0, {"node": "a"})
        store.close()
        items = list(iter_segments(tmp_path / "wal.seg"))
        assert [type(i).__name__ for i in items] == [
            "PointBatch", "PointBatch", "DeleteBefore", "PointBatch",
        ]
        assert items[2] == DeleteBefore(2)
        assert dumps(load(tmp_path / "wal.seg")) == dumps(live)


class TestConvertLog:
    """Rewriting a damaged log into a clean one is ``compact_log``."""

    def test_lenient_skips_damage(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            for ts in (1, 2, 3):
                w.write_batch(PointBatch.from_points([make_point(ts=ts)]))
        raw = bytearray(path.read_bytes())
        block = (len(raw) - len(SEGMENT_MAGIC)) // 3
        raw[len(SEGMENT_MAGIC) + block + 20] ^= 0xFF  # block 2's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(SegmentCorruption, match="checksum"):
            compact_log(path, strict=True)
        assert path.read_bytes() == bytes(raw)  # a failed rewrite writes nothing
        result = compact_log(path, strict=False)
        assert result.points == 2
        assert stored_timestamps(load(path)) == [1, 3]  # strict: clean again


class TestDataportWalHook:
    def test_write_batch_flushes_to_disk(self, tmp_path):
        """Write-ahead means *on disk* before the store sees the batch:
        the block (and magic) must not sit in a userspace buffer."""
        w = SegmentWriter(tmp_path / "wal.seg")
        w.write_batch(mixed_batch())
        on_disk = segment_point_count(tmp_path / "wal.seg")  # before close
        assert on_disk == len(mixed_batch())
        w.close()

    def test_flushes_append_to_wal_before_store(self, tmp_path):
        """Through ``DurableStore`` the writer's flush is write-ahead:
        the block is on disk when the store sees the batch, and the
        journal replays to the store."""
        path = tmp_path / "wal.seg"
        on_disk_at_commit = []

        class Watching(TSDB):
            def put_batch(self, batch):
                on_disk_at_commit.append(segment_point_count(path))
                return super().put_batch(batch)

        db = Watching()
        store = DurableStore(db, path)
        writer = BatchingTsdbWriter(store, max_pending=16)
        for i in range(50):
            writer.add("air.co2.ppm", i, float(i), {"node": "n1"})
        writer.flush()
        store.close()
        assert writer.written == 50
        assert on_disk_at_commit == [16, 32, 48, 50]
        assert dumps(load(path)) == dumps(db)

    def test_failed_wal_write_keeps_batch_for_retry(self, tmp_path, monkeypatch):
        """A WAL append failure (disk full) must not lose the buffered
        points: the builder retains them and a later flush retries."""
        db = TSDB()
        store = DurableStore(db, tmp_path / "wal.seg")
        append = store._writer.write_batch

        def failing_once(batch):
            monkeypatch.setattr(store._writer, "write_batch", append)
            raise OSError("no space left on device")

        monkeypatch.setattr(store._writer, "write_batch", failing_once)
        writer = BatchingTsdbWriter(store, max_pending=100)
        for i in range(10):
            writer.add("air.co2.ppm", i, float(i), {"node": "n1"})
        with pytest.raises(OSError):
            writer.flush()
        assert writer.pending == 10  # retained, not lost
        assert db.point_count == 0  # store untouched too
        assert writer.flush() == 10  # retry succeeds
        store.close()
        assert db.point_count == 10
        assert dumps(load(store.wal_path)) == dumps(db)


# -- hypothesis: codec + equivalence over arbitrary workloads -------------
names = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._\-/]{0,8}", fullmatch=True)
tag_maps = st.dictionaries(names, names, max_size=3)
point_rows = st.lists(
    st.tuples(
        names,
        st.integers(min_value=0, max_value=2**40),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        tag_maps,
    ),
    max_size=80,
)


class TestCodecProperties:
    @given(point_rows)
    @settings(max_examples=120, deadline=None)
    def test_batch_codec_round_trips_exactly(self, rows):
        """Arbitrary metrics/tags/timestamps — including out-of-order
        rows, duplicate series keys, NaN and infinite values — survive
        encode/decode bit-exactly, in row order."""
        builder = BatchBuilder()
        for metric, ts, val, tags in rows:
            builder.add(metric, ts, val, tags)
        batch = builder.build()
        assert_batches_equal(decode_batch(encode_batch(batch)), batch)

    @given(point_rows, st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=60, deadline=None)
    def test_wal_equivalence_with_marker(self, rows, cutoff):
        """A WAL carrying a stream with a retention marker in the middle
        restores the store the live process built from the same
        operations (NaN and infinities included)."""
        half = len(rows) // 2
        before, after = (
            PointBatch.from_points(DataPoint.make(m, t, v, tags) for m, t, v, tags in part)
            for part in (rows[:half], rows[half:])
        )
        buf = io.BytesIO()
        writer = SegmentWriter(buf)
        writer.write_batch(before)
        writer.delete_before(cutoff)
        writer.write_batch(after)
        live = TSDB()
        live.put_batch(before)
        live.delete_before(cutoff)
        live.put_batch(after)
        buf.seek(0)
        assert dumps(load(buf)) == dumps(live)

    @given(point_rows)
    @settings(max_examples=60, deadline=None)
    def test_binary_snapshot_restores_identical_state(self, rows):
        db = TSDB()
        builder = BatchBuilder()
        for metric, ts, val, tags in rows:
            v = val if val == val and abs(val) != float("inf") else -1.0
            builder.add(metric, ts, v, tags)
        db.put_batch(builder.build())
        blob = dumps(db)
        assert dumps(load(io.BytesIO(blob))) == dumps(db)


class TestDeleteSeriesBeforeMarker:
    """The per-series retention marker (scoped retention's WAL footprint)
    round-trips the segment format and replays its deletion."""

    def reference(self):
        db = TSDB()
        db.put("m", 10, 1.0, {"node": "a"})
        db.put("m", 20, 2.0, {"node": "a"})
        db.put("m", 10, 3.0, {"node": "b"})
        key = parse_series_key("m{node=a}")
        db.delete_series_before(key, 15)  # drops only m{node=a}@10
        return db, key

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "wal.seg"
        _, key = self.reference()
        with SegmentWriter(path) as w:
            w.write_batch(PointBatch.from_points([make_point(ts=1)]))
            w.delete_series_before(key, 15)
        items = list(iter_segments(path))
        assert items[1] == DeleteSeriesBefore(key, 15)

    def test_text_round_trip(self, tmp_path):
        """The marker carries its key as the key's text form: a key with
        several tags lands in the file as ``str(key)`` and parses back to
        the same key, cutoff sign included."""
        text = "air.co2.ppm{city=vejle,node=ctt-01}"
        key = parse_series_key(text)
        assert str(key) == text
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            w.delete_series_before(key, -15)
        assert text.encode("utf-8") in path.read_bytes()
        (marker,) = iter_segments(path)
        assert marker == DeleteSeriesBefore(key, -15)
        assert str(marker.key) == text

    def test_replay_applies_the_scoped_deletion(self, tmp_path):
        live, key = self.reference()
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            w.write_batch(
                PointBatch.from_points(
                    [
                        DataPoint.make("m", 10, 1.0, {"node": "a"}),
                        DataPoint.make("m", 20, 2.0, {"node": "a"}),
                        DataPoint.make("m", 10, 3.0, {"node": "b"}),
                    ]
                )
            )
            w.delete_series_before(key, 15)
        assert dumps(load(path)) == dumps(live)

    def test_marker_rejects_garbage_key(self, tmp_path):
        """A series marker whose key does not parse (CRC intact: written
        that way) fails a strict read and is skipped by a lenient one."""
        from repro.tsdb.segments import BLOCK_MARKER, frame_block

        raw = b"not{a}key{"
        garbage = struct.pack("<bqBH", 2, 15, 0, len(raw)) + raw  # kind 2
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            w.write_batch(PointBatch.from_points([make_point(ts=1)]))
        with open(path, "ab") as fh:
            fh.write(frame_block(BLOCK_MARKER, garbage))
        with pytest.raises(SegmentCorruption, match="series"):
            list(iter_segments(path))
        assert load(path, strict=False).point_count == 1


# -- hypothesis: crash recovery under arbitrary torn writes ---------------

_HDR = struct.Struct("<BII")  # u8 type · u32 len · u32 crc

block_specs = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.integers(0, 2)),
        st.tuples(st.just("del"), st.integers(0, 1)),
        st.tuples(st.just("delseries"), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=8,
)


class TestTornWriteRecoveryProperty:
    """Satellite: ``strict=False`` recovery is *exact*, not best-effort.

    A WAL damaged at an arbitrary byte offset — truncated (torn write)
    or bit-flipped (media damage) — must recover precisely the blocks
    the framing rules promise:

    - truncation keeps every block wholly inside the surviving prefix;
    - a flip under CRC cover (type byte, crc field, payload) loses
      exactly the damaged block — the length prefix bounds the blast;
    - a flip in the length field can't be framed past: the clean prefix
      before it survives, the damaged block never resurrects.
    """

    def build_wal(self, spec):
        """Write one block per spec entry (in memory); returns the raw
        bytes, the decoded items, and each block's ``(start, end)``
        byte range."""
        buf = io.BytesIO()
        w = SegmentWriter(buf)
        for i, (kind, n) in enumerate(spec):
            if kind == "batch":
                b = BatchBuilder()
                for j in range(n + 1):
                    b.add("m", 1000 * i + j, float(i), {"node": f"n{j}"})
                w.write_batch(b.build())
            elif kind == "del":
                w.delete_before(
                    1000 * i, exclude_suffix=".rollup" if n else None
                )
            else:
                w.delete_series_before(
                    parse_series_key(f"m{{node=n{n}}}"), 1000 * i
                )
        w.flush()
        raw = buf.getvalue()
        items = list(iter_segments(io.BytesIO(raw)))
        ranges, off = [], len(SEGMENT_MAGIC)
        while off < len(raw):
            _t, plen, _crc = _HDR.unpack_from(raw, off)
            ranges.append((off, off + _HDR.size + plen))
            off += _HDR.size + plen
        assert len(ranges) == len(items)
        return raw, items, ranges

    @staticmethod
    def replay(items, store):
        for item in items:
            if isinstance(item, DeleteSeriesBefore):
                store.delete_series_before(item.key, item.cutoff)
            elif isinstance(item, DeleteBefore):
                store.delete_before(
                    item.cutoff, exclude_suffix=item.exclude_suffix
                )
            else:
                store.put_batch(item)
        return store

    def assert_recovers(self, raw, expected_items):
        """Lenient recovery equals a replay of ``expected_items``."""
        single = load(io.BytesIO(raw), strict=False)
        assert dumps(single) == dumps(self.replay(expected_items, TSDB()))

    @given(spec=block_specs, frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_truncation_recovers_longest_valid_prefix(self, spec, frac):
        raw, items, ranges = self.build_wal(spec)
        lo = len(SEGMENT_MAGIC)
        cut = lo + int(frac * (len(raw) - lo))
        torn = raw[:cut]
        survivors = [it for it, (_s, e) in zip(items, ranges) if e <= cut]
        boundaries = {lo} | {e for _s, e in ranges}
        if cut not in boundaries:
            # A cut on a block boundary is a clean (shorter) file; any
            # other cut leaves a torn block that strict mode rejects.
            with pytest.raises(SegmentCorruption, match="truncated"):
                list(iter_segments(io.BytesIO(torn)))
        self.assert_recovers(torn, survivors)

    @given(spec=block_specs, frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_byte_flip_loses_at_most_the_damaged_block(self, spec, frac):
        raw, items, ranges = self.build_wal(spec)
        lo = len(SEGMENT_MAGIC)
        offset = min(lo + int(frac * (len(raw) - lo)), len(raw) - 1)
        damaged = bytearray(raw)
        damaged[offset] ^= 0xFF
        damaged = bytes(damaged)
        hit = next(i for i, (s, e) in enumerate(ranges) if s <= offset < e)
        start, _end = ranges[hit]
        with pytest.raises(SegmentCorruption):
            list(iter_segments(io.BytesIO(damaged)))
        in_length_field = start + 1 <= offset < start + 5
        if not in_length_field:
            # CRC-covered damage (type byte, crc field, payload): the
            # length prefix bounds the blast — exactly one block lost.
            self.assert_recovers(
                damaged, [it for i, it in enumerate(items) if i != hit]
            )
        else:
            # A lied-about length breaks framing: the clean prefix is
            # guaranteed, the damaged block must never resurrect, and
            # nothing un-CRC'd is ever invented.
            recovered = list(iter_segments(io.BytesIO(damaged), strict=False))
            recovered_ts = {
                int(t)
                for b in recovered
                if isinstance(b, PointBatch)
                for t in b.timestamps
            }
            all_ts = {
                int(t)
                for b in items
                if isinstance(b, PointBatch)
                for t in b.timestamps
            }
            assert recovered_ts <= all_ts  # nothing invented
            for it in items[:hit]:  # prefix blocks always survive
                if isinstance(it, PointBatch):
                    assert {int(t) for t in it.timestamps} <= recovered_ts
            if isinstance(items[hit], PointBatch):  # damage never returns
                assert not (
                    {int(t) for t in items[hit].timestamps} & recovered_ts
                )


# -- one walker: path and handle sources agree, and nothing forks it again --


def _outcome(source, strict):
    """Everything a consumer can observe from one read: the items
    yielded before the end, and the error (offset + reason) if any."""
    items, error = [], None
    try:
        for item in iter_segments(source, strict=strict):
            items.append(item)
    except SegmentCorruption as exc:
        error = (exc.offset, exc.reason)
    return items, error


class TestOneWalker:
    @given(
        spec=block_specs,
        damage=st.lists(
            st.tuples(
                st.sampled_from(["flip", "cut", "insert", "delete"]),
                st.floats(0.0, 1.0),
                st.integers(1, 255),
            ),
            max_size=3,
        ),
        strict=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_path_and_handle_sources_read_identically(
        self, tmp_path_factory, spec, damage, strict
    ):
        """For random byte damage (magic included), reading the file by
        path and reading the same bytes through a handle give the same
        items and the same error — offset and reason — strict and
        lenient."""
        raw = bytearray(TestTornWriteRecoveryProperty().build_wal(spec)[0])
        for kind, frac, byte in damage:
            at = min(int(frac * len(raw)), max(len(raw) - 1, 0))
            if kind == "flip" and raw:
                raw[at] ^= byte
            elif kind == "cut":
                del raw[at:]
            elif kind == "insert":
                raw[at:at] = bytes([byte]) * (byte % 7 + 1)
            elif kind == "delete":
                del raw[at : at + byte % 7 + 1]
        path = tmp_path_factory.mktemp("walker") / "wal.seg"
        path.write_bytes(bytes(raw))
        by_path, path_error = _outcome(path, strict)
        by_handle, handle_error = _outcome(io.BytesIO(bytes(raw)), strict)
        assert path_error == handle_error
        assert len(by_path) == len(by_handle)
        for a, b in zip(by_path, by_handle):
            if isinstance(a, PointBatch):
                assert_batches_equal(a, b)
            else:
                assert a == b

    def test_no_reader_forks_and_one_writer_entry_point(self, tmp_path):
        """The options and twins this format once carried stay gone: no
        ``mmap`` switch on any reader (one framing walk), no per-point
        surface on ``SegmentWriter`` (``write_batch`` is the data entry
        point), no ``format`` on any path that writes or reads (``dumps``
        keeps it only as a one-value vestige), no second format's names,
        no ``convert-log`` — and every consumer reads its source through
        the one framing walk and nothing else.  Nor do the features no
        journey reached come back: no cold-shard pager (so the store
        layer's one ``__getattr__`` pass-through is ``StoreWrapper``'s),
        no lossy-network model on the broker, and no second serving
        object: no hook under the result cache and no refresher apart
        from the ``CachingStore``; no unsorted tail under a series, so
        no compaction on read and no approximate point count."""
        import ast
        import dataclasses
        import inspect

        import repro.tsdb
        from repro.cli import build_parser
        from repro.region.queue import AsyncBatchQueue
        from repro.replication import ReplicationLog
        from repro.mqtt import Broker, Client
        from repro.replication import ReplicatedStore
        from repro.serve import CachingStore
        from repro.tsdb import persistence, segment_stats
        from repro.tsdb.interface import StoreApi, TimeSeriesStore
        from repro.tsdb.tier import Compactor
        from repro.tsdb.segments import _iter_blocks

        readers = (
            iter_segments, _iter_blocks, segment_point_count, segment_stats,
            load, compact_log, Compactor,
        )  # fmt: skip
        for fn in readers:
            assert "mmap" not in inspect.signature(fn).parameters, fn
        assert "mmap" not in {f.name for f in dataclasses.fields(Compactor)}
        for name in ("write", "write_many", "_pending", "_pending_frames"):
            assert not hasattr(SegmentWriter, name)
        assert "_pending" not in vars(SegmentWriter(io.BytesIO()))
        for fn in (compact_log, load, snapshot):
            assert "format" not in inspect.signature(fn).parameters, fn
        with pytest.raises(ValueError, match="format"):
            dumps(TSDB(), format="text")

        text_names = {
            "LogWriter", "LogCorruption", "MARKER_PREFIX", "convert_log",
            "detect_format", "iter_batches", "iter_entries", "iter_log",
            "format_point", "format_delete_before", "format_delete_series_before",
            "parse_entry", "parse_line", "_coerce_format", "_write_format",
        }  # fmt: skip
        assert not text_names & set(vars(persistence))
        assert not text_names & set(vars(repro.tsdb))
        for cls in (StoreApi, TimeSeriesStore, PointBatch):
            assert not hasattr(cls, "iter_points"), cls
        (commands,) = (
            a.choices for a in build_parser()._actions if a.dest == "command"
        )
        assert "convert-log" not in commands and len(commands) == 10

        assert "ColdShardPager" not in vars(repro.tsdb)
        # One snapshot layout: a file (``snapshot`` / ``load(into=)``) —
        # no per-shard directory, and no partition to lay out: the
        # sharded module is gone and the store has no shards.
        import importlib.util

        import repro.tsdb.plan
        import repro.tsdb.tier

        for name in ("snapshot_to_dir", "restore_from_dir", "shards",
                     "shard_of", "num_shards"):
            assert not hasattr(TSDB, name), name
        assert importlib.util.find_spec("repro.tsdb.sharded") is None
        # The replication fault harness is test tooling, and a follower
        # is waited on through its ``applied_seq`` alone.
        from repro.replication import Follower

        assert importlib.util.find_spec("repro.replication.faults") is None
        assert not hasattr(Follower, "wait_applied")
        assert "compact_dir" not in vars(repro.tsdb.tier)
        # ... and one query form: no expression queries anywhere.
        for name in ("expr", "ExprQuery", "ExprResult", "_evaluate_expr"):
            assert name not in vars(repro.tsdb.plan), name
            assert name not in vars(repro.tsdb), name
        # ... and one serving store: CachingStore answers every request
        # through its result cache and its panel state, so no hook
        # reaches under it and the refresher is the store itself.
        from repro.serve import CacheStats, IncrementalRefresher, QueryServer

        for cls in (StoreApi, CachingStore):
            assert not hasattr(cls, "_run_uncached_batch"), cls
        assert "_run_unique_batch" not in vars(CachingStore)
        caching = CachingStore(TSDB())
        assert IncrementalRefresher(caching) is caching
        assert not hasattr(QueryServer(TSDB()), "refresher")
        assert "spliced" not in CacheStats().as_dict()
        # ... and one published state per series: no unsorted tail for
        # a read to merge in, so no read writes and every count is exact.
        from repro.tsdb.series import SeriesStore

        for name in ("_compact", "approximate_size", "_append_sorted"):
            assert not hasattr(SeriesStore, name), name
        assert SeriesStore.__slots__ == (
            "_cols", "generation", "reshape_generation", "_metric",
        )
        for cls in (StoreApi, TimeSeriesStore, TSDB):
            assert not hasattr(cls, "exact_point_count"), cls
        store_layer = {
            *Path(repro.tsdb.__file__).parent.rglob("*.py"),
            *(Path(inspect.getsourcefile(c)) for c in (CachingStore, ReplicatedStore)),
        }
        getattrs = []
        for path in store_layer:
            for node in ast.parse(path.read_text()).body:
                body = node.body if isinstance(node, ast.ClassDef) else [node]
                getattrs += [
                    getattr(node, "name", path.name) for f in body
                    if isinstance(f, ast.FunctionDef) and f.name == "__getattr__"
                ]
        assert getattrs == ["StoreWrapper"]
        for name in ("redeliver", "disconnect", "connected"):
            assert not hasattr(Broker, name) and not hasattr(Client, name), name
        assert not inspect.signature(Broker).parameters
        assert list(inspect.signature(Broker.connect).parameters) == [
            "self", "client_id",
        ]

        # Every consumer opens its source for reading only inside the
        # framing walk, and each one reads it.
        opened: list[str] = []
        real_open = io.open

        def watching_open(file, mode="r", *args, **kwargs):
            if "r" in mode and "+" not in mode and Path(file).parent == tmp_path:
                opened.append(sys._getframe(1).f_code.co_name)
            return real_open(file, mode, *args, **kwargs)

        def reads(consume) -> list[str]:
            opened.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("builtins.open", watching_open)
                mp.setattr(io, "open", watching_open)
                consume()
            return list(opened)

        db = TSDB()
        reference_ops(db)
        wal = tmp_path / "wal.seg"
        with SegmentWriter(wal) as w:
            write_reference_wal(w)
        spill = tmp_path / "spill-00000000.seg"
        spill.write_bytes(dumps(db))

        def adopt_and_drain():
            queue = AsyncBatchQueue(10, "spill", spill_dir=tmp_path)
            assert queue.spill_pending_points == db.point_count
            assert len(queue.drain()) == db.point_count

        consumers = {
            "load": lambda: load(wal),
            "spill adoption": adopt_and_drain,
            "append_segment": lambda: ReplicationLog().append_segment(wal),
            "compact_log": lambda: compact_log(wal),
        }
        for name, consume in consumers.items():
            walks = reads(consume)
            assert walks and set(walks) == {"_iter_blocks"}, (name, walks)
