"""Tests for TSDB persistence (WAL load, snapshot, dumps, marker replay)."""

import io

import pytest

from repro.tsdb import (
    DataPoint,
    PointBatch,
    Query,
    SegmentCorruption,
    SegmentWriter,
    ShardedTSDB,
    TSDB,
    dumps,
    load,
    snapshot,
)
from repro.tsdb.persistence import DeleteBefore, DeleteSeriesBefore
from repro.tsdb.segments import (
    SEGMENT_MAGIC,
    decode_marker,
    encode_marker,
    iter_segments,
    parse_series_key,
)


def make_point(metric="m", ts=100, val=1.5, tags=None):
    return DataPoint.make(metric, ts, val, tags or {"node": "a"})


def write_points(writer, points):
    """One batch block holding ``points``, in order."""
    writer.write_batch(PointBatch.from_points(points))


def one_point_blocks(path, timestamps):
    """A WAL of one single-point batch block per timestamp; the blocks
    are the same size, so block ``i`` starts at ``magic + i * size``."""
    with SegmentWriter(path) as w:
        for ts in timestamps:
            write_points(w, [make_point(ts=ts)])
    return (path.stat().st_size - len(SEGMENT_MAGIC)) // len(timestamps)


class TestLogWriterAndLoad:
    """A WAL written block by block replays through ``load``."""

    def test_wal_round_trip(self, tmp_path):
        path = tmp_path / "wal.seg"
        points = [make_point(ts=i, val=float(i)) for i in range(50)]
        with SegmentWriter(path) as writer:
            writer.comment("header")
            for i in range(0, 50, 10):
                write_points(writer, points[i : i + 10])
        assert writer.written == 50
        db = load(path)
        assert db.point_count == 50
        sl = db.run(Query("m", 0, 100)).single()
        assert sl.values.tolist() == [float(i) for i in range(50)]

    def test_append_mode(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            write_points(w, [make_point(ts=1)])
        with SegmentWriter(path) as w:
            write_points(w, [make_point(ts=2)])
        assert path.read_bytes().count(SEGMENT_MAGIC) == 1  # one header
        assert load(path).point_count == 2

    def test_load_strict_raises_on_corruption(self, tmp_path):
        path = tmp_path / "wal.seg"
        size = one_point_blocks(path, (1, 2, 3))
        raw = bytearray(path.read_bytes())
        raw[len(SEGMENT_MAGIC) + size + 20] ^= 0xFF  # block 2's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(SegmentCorruption, match="checksum"):
            load(path)

    def test_load_lenient_skips_corruption(self, tmp_path):
        path = tmp_path / "wal.seg"
        size = one_point_blocks(path, (1, 2, 3))
        raw = bytearray(path.read_bytes())
        raw[len(SEGMENT_MAGIC) + size + 20] ^= 0xFF  # block 2's payload
        path.write_bytes(bytes(raw))
        db = load(path, strict=False)
        assert db.point_count == 2
        assert db.run(Query("m", 0, 10)).single().timestamps.tolist() == [1, 3]

    def test_truncated_tail_recovery(self, tmp_path):
        """Simulates an unclean shutdown cutting the last block short."""
        path = tmp_path / "wal.seg"
        size = one_point_blocks(path, (1, 2, 3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-size])  # the cut fell between blocks
        assert load(path).point_count == 2
        for cut in (1, size // 2, size - 1):  # mid-payload ... mid-header
            path.write_bytes(raw[:-cut])
            with pytest.raises(SegmentCorruption, match="truncated"):
                load(path)
            db = load(path, strict=False)
            assert db.point_count == 2
            assert db.run(Query("m", 0, 10)).single().timestamps.tolist() == [1, 2]

    def test_iter_log_from_handle(self, tmp_path):
        path = tmp_path / "wal.seg"
        one_point_blocks(path, (1, 2))
        with open(path, "rb") as fh:
            batches = list(iter_segments(fh))
        assert [b.timestamps.tolist() for b in batches] == [[1], [2]]
        db = load(io.BytesIO(path.read_bytes()))
        assert db.run(Query("m", 0, 10)).single().timestamps.tolist() == [1, 2]


class TestSnapshot:
    def test_snapshot_round_trip(self, tmp_path):
        db = TSDB()
        for i in range(20):
            db.put("a.b", i, float(i), {"n": "x"})
            db.put("c.d", i, float(-i))
        path = tmp_path / "snap.seg"
        n = snapshot(db, path)
        assert n == 40
        restored = load(path)
        assert restored.point_count == 40
        assert restored.metrics() == ["a.b", "c.d"]

    def test_snapshot_compacts_duplicates(self, tmp_path):
        db = TSDB()
        db.put("m", 1, 1.0)
        db.put("m", 1, 2.0)  # overwrite
        path = tmp_path / "snap.seg"
        assert snapshot(db, path) == 1
        assert load(path).run(Query("m", 0, 10)).single().values.tolist() == [2.0]

    def test_dumps_round_trip(self):
        db = TSDB()
        db.put("m", 1, 1.0, {"a": "b"})
        blob = dumps(db)
        assert blob.startswith(SEGMENT_MAGIC)
        restored = load(io.BytesIO(blob))
        assert restored.point_count == 1


class TestDeleteBeforeMarkers:
    """Replay of logs where retention markers interleave with batch
    blocks — the path that depends on the index pruning of
    ``TSDB.delete_before`` (dead series must not leave catalog postings
    behind when a restore re-applies retention)."""

    def test_marker_round_trip(self):
        key = parse_series_key("m{node=a}")
        for marker in (
            DeleteBefore(500),
            DeleteBefore(500, ".rollup"),
            DeleteBefore(500, ""),
            DeleteSeriesBefore(key, -7),
        ):
            assert decode_marker(encode_marker(marker)) == marker

    def test_marker_parse_errors(self):
        good = encode_marker(DeleteBefore(5, ".rollup"))
        for bad in (
            good[:5],  # truncated head
            good[:-1],  # truncated tail
            b"\x07" + good[1:],  # unknown kind
            encode_marker(DeleteBefore(5, "x"))[:-1] + b"\xff",  # bad utf-8
        ):
            with pytest.raises(ValueError):
                decode_marker(bad)

    def test_writer_emits_replayable_marker(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            write_points(w, [make_point(ts=1), make_point(ts=2)])
            w.delete_before(2)
        entries = list(iter_segments(path))
        assert entries[-1] == DeleteBefore(2)
        assert w.written == 2  # markers are not points
        assert load(path).exact_point_count() == 1

    def test_replay_interleaved_batches_and_markers(self, tmp_path):
        """Log = batch block · marker · batch block · marker: the replay
        must apply each deletion at its position in the stream, so
        points re-written *after* a marker survive it."""
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            # batch block 1: two series, out of order
            write_points(
                w,
                [
                    make_point("m.a", ts, float(ts), {"node": "a"})
                    for ts in (30, 10, 20)
                ],
            )
            write_points(w, [make_point("m.b", ts, 1.0, {"node": "b"}) for ts in (5, 15)])
            w.delete_before(20)  # drops every point with ts < 20
            # batch block 2: m.a gets older data back-filled post-marker
            write_points(w, [make_point("m.a", 12, 99.0, {"node": "a"})])
            w.delete_before(11)
        db = load(path)
        # Live-process reference: same operations applied directly.
        ref = TSDB()
        for ts in (30, 10, 20):
            ref.put("m.a", ts, float(ts), {"node": "a"})
        for ts in (5, 15):
            ref.put("m.b", ts, 1.0, {"node": "b"})
        ref.delete_before(20)
        ref.put("m.a", 12, 99.0, {"node": "a"})
        ref.delete_before(11)
        assert dumps(db) == dumps(ref)
        sl = db.run(Query("m.a", 0, 100)).single()
        assert sl.timestamps.tolist() == [12, 20, 30]
        assert sl.values.tolist() == [99.0, 20.0, 30.0]

    def test_replay_prunes_emptied_series_from_indexes(self, tmp_path):
        """Guards the index-prune fix under restore: a series fully
        deleted by a marker must vanish from the catalog postings of the
        replayed database, not just lose its points."""
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            write_points(
                w, [make_point("dead.metric", ts, 1.0, {"node": "x"}) for ts in (1, 2)]
            )
            write_points(
                w, [make_point("live.metric", ts, 2.0, {"node": "y"}) for ts in (1, 200)]
            )
            w.delete_before(100)
        db = load(path)
        assert db.metrics() == ["live.metric"]
        assert db.tag_values("dead.metric", "node") == []
        assert db.catalog.match("dead.metric", {"node": "*"}) == []
        assert db.series_count == 1
        # The pruned state round-trips: snapshot of the replay is clean.
        assert b"dead.metric" not in dumps(db)

    def test_replay_marker_exclude_suffix(self, tmp_path):
        """Rollup series named in the marker's exclude= survive replayed
        retention, exactly as under the live ``delete_before`` primitive."""
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            write_points(w, [make_point("m.raw", ts, 1.0) for ts in (10, 20)])
            write_points(w, [make_point("m.raw.rollup", 0, 1.5)])
            w.delete_before(1_000, exclude_suffix=".rollup")
        assert list(iter_segments(path))[-1] == DeleteBefore(1_000, ".rollup")
        assert load(path).metrics() == ["m.raw.rollup"]

    def test_replay_into_sharded_store(self, tmp_path):
        """Batches interleaved with markers replay identically into a
        store handed to ``load(into=)`` — here the frozen e2e's
        ``ShardedTSDB(4)``, the way its end-of-trial check replays."""
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            for i in range(40):
                write_points(
                    w, [make_point(f"m.{i % 5}", i, float(i), {"node": f"n{i % 3}"})]
                )
            w.delete_before(25)
            write_points(
                w,
                [make_point(f"m.{i % 5}", 100 + i, float(i), {"node": "n9"}) for i in range(10)],
            )
            w.delete_series_before(parse_series_key("m.0{node=n9}"), 105)
            w.delete_before(30, exclude_suffix=".4")
        single = load(path)
        sharded = load(path, into=ShardedTSDB(4))
        assert dumps(sharded) == dumps(single)
        assert sharded.metrics() == single.metrics()

    def test_lenient_mode_skips_corrupt_markers(self, tmp_path):
        """A damaged marker block fails a strict replay and is skipped by
        a lenient one: the batch blocks around it both replay."""
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            write_points(w, [make_point(ts=1)])
        marker_at = path.stat().st_size
        with SegmentWriter(path) as w:
            w.delete_before(5)
            write_points(w, [make_point(ts=9)])
        raw = bytearray(path.read_bytes())
        raw[marker_at + 9 + 3] ^= 0xFF  # a cutoff byte under the block's CRC
        path.write_bytes(bytes(raw))
        with pytest.raises(SegmentCorruption, match="checksum"):
            load(path)
        db = load(path, strict=False)
        assert db.exact_point_count() == 2  # the marker never applied
