"""Tests for TSDB persistence (line protocol, WAL, snapshot) and retention."""

import io

import pytest

from repro.tsdb import (
    DataPoint,
    LogCorruption,
    LogWriter,
    Query,
    ShardedTSDB,
    TSDB,
    dumps,
    load,
    snapshot,
)
from repro.tsdb.downsample import Downsample
from repro.tsdb.persistence import (
    DeleteBefore,
    format_delete_before,
    format_point,
    iter_entries,
    iter_log,
    parse_entry,
    parse_line,
)
from repro.tsdb.retention import RetentionPolicy


def make_point(metric="m", ts=100, val=1.5, tags=None):
    return DataPoint.make(metric, ts, val, tags or {"node": "a"})


class TestLineProtocol:
    def test_format_and_parse_round_trip(self):
        p = make_point(val=3.14159, tags={"node": "ctt-01", "city": "vejle"})
        line = format_point(p)
        parsed = parse_line(line)
        assert parsed == p

    def test_format_without_tags(self):
        p = DataPoint.make("m", 1, 2.0)
        assert format_point(p) == "m 1 2.0"

    def test_parse_skips_blank_and_comments(self):
        assert parse_line("") is None
        assert parse_line("   ") is None
        assert parse_line("# a comment") is None

    def test_parse_errors(self):
        for bad in ("m", "m 1", "m xx 1.0", "m 1 abc", "m 1 2.0 notag"):
            with pytest.raises(LogCorruption):
                parse_line(bad, lineno=7)

    def test_corruption_carries_lineno(self):
        with pytest.raises(LogCorruption) as exc:
            parse_line("garbage", lineno=42)
        assert exc.value.lineno == 42

    def test_float_precision_survives(self):
        p = DataPoint.make("m", 1, 0.1 + 0.2)
        assert parse_line(format_point(p)).value == p.value


class TestLogWriterAndLoad:
    def test_wal_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        points = [make_point(ts=i, val=float(i)) for i in range(50)]
        with LogWriter(path) as writer:
            writer.comment("header")
            n = writer.write_many(points)
        assert n == 50
        db = load(path)
        assert db.point_count == 50

    def test_append_mode(self, tmp_path):
        path = tmp_path / "wal.log"
        with LogWriter(path) as w:
            w.write(make_point(ts=1))
        with LogWriter(path) as w:
            w.write(make_point(ts=2))
        assert load(path).point_count == 2

    def test_load_strict_raises_on_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("m 1 2.0\nGARBAGE LINE\nm 3 4.0\n")
        with pytest.raises(LogCorruption):
            load(path)

    def test_load_lenient_skips_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("m 1 2.0\nGARBAGE LINE\nm 3 4.0\n")
        db = load(path, strict=False)
        assert db.point_count == 2

    def test_truncated_tail_recovery(self, tmp_path):
        """Simulates an unclean shutdown cutting the last line short."""
        path = tmp_path / "wal.log"
        path.write_text("m 1 2.0\nm 2 3.0\nm 3 4")  # last line has no value sep
        db = load(path, strict=False)
        assert db.point_count == 3  # "m 3 4" actually parses: value=4
        path.write_text("m 1 2.0\nm 2 3.0\nm 3")  # truly truncated
        db = load(path, strict=False)
        assert db.point_count == 2

    def test_iter_log_from_handle(self):
        buf = io.StringIO("m 1 2.0\nm 2 3.0\n")
        points = list(iter_log(buf))
        assert [p.timestamp for p in points] == [1, 2]


class TestSnapshot:
    def test_snapshot_round_trip(self, tmp_path):
        db = TSDB()
        for i in range(20):
            db.put("a.b", i, float(i), {"n": "x"})
            db.put("c.d", i, float(-i))
        path = tmp_path / "snap.log"
        n = snapshot(db, path)
        assert n == 40
        restored = load(path)
        assert restored.point_count == 40
        assert restored.metrics() == ["a.b", "c.d"]

    def test_snapshot_compacts_duplicates(self, tmp_path):
        db = TSDB()
        db.put("m", 1, 1.0)
        db.put("m", 1, 2.0)  # overwrite
        path = tmp_path / "snap.log"
        assert snapshot(db, path) == 1
        assert load(path).run(Query("m", 0, 10)).single().values.tolist() == [2.0]

    def test_dumps_round_trip(self):
        db = TSDB()
        db.put("m", 1, 1.0, {"a": "b"})
        text = dumps(db)
        restored = load(io.StringIO(text))
        assert restored.point_count == 1


class TestDeleteBeforeMarkers:
    """Replay of logs where retention markers interleave with batch
    blocks — the seed suite never exercised this, and it is exactly the
    path that depends on the index pruning of ``TSDB.delete_before``
    (dead series must not leave ``_by_metric``/``_by_tag`` entries
    behind when a restore re-applies retention)."""

    def test_marker_round_trip(self):
        for marker in (DeleteBefore(500), DeleteBefore(500, ".rollup")):
            assert parse_entry(format_delete_before(marker)) == marker

    def test_marker_parse_errors(self):
        for bad in (
            "!delete_after 5",
            "!delete_before",
            "!delete_before xx",
            "!delete_before 5 6 7",
            "!delete_before 5 keep=.rollup",
            "!delete_before 5 exclude=",
        ):
            with pytest.raises(LogCorruption):
                parse_entry(bad, lineno=3)

    def test_writer_emits_replayable_marker(self, tmp_path):
        path = tmp_path / "wal.log"
        with LogWriter(path) as w:
            w.write(make_point(ts=1))
            w.write(make_point(ts=2))
            w.delete_before(2)
        entries = list(iter_entries(path))
        assert entries[-1] == DeleteBefore(2)
        assert w.written == 2  # markers are not points
        assert load(path).exact_point_count() == 1

    def test_replay_interleaved_batches_and_markers(self, tmp_path):
        """Log = batch block · marker · batch block · marker: the replay
        must apply each deletion at its position in the stream, so
        points re-written *after* a marker survive it."""
        path = tmp_path / "wal.log"
        with LogWriter(path) as w:
            # batch block 1: two series, out of order
            w.write_many(
                [
                    make_point("m.a", ts, float(ts), {"node": "a"})
                    for ts in (30, 10, 20)
                ]
            )
            w.write_many([make_point("m.b", ts, 1.0, {"node": "b"}) for ts in (5, 15)])
            w.delete_before(20)  # drops every point with ts < 20
            # batch block 2: m.a gets older data back-filled post-marker
            w.write_many([make_point("m.a", 12, 99.0, {"node": "a"})])
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
        """Guards the PR 1 index-prune fix under restore: a series fully
        deleted by a marker must vanish from the metric and tag indexes
        of the replayed database, not just lose its points."""
        path = tmp_path / "wal.log"
        with LogWriter(path) as w:
            w.write_many([make_point("dead.metric", ts, 1.0, {"node": "x"}) for ts in (1, 2)])
            w.write_many([make_point("live.metric", ts, 2.0, {"node": "y"}) for ts in (1, 200)])
            w.delete_before(100)
        db = load(path)
        assert db.metrics() == ["live.metric"]
        assert db.suggest_tag_values("dead.metric", "node") == []
        assert db.series_count == 1
        # The pruned state round-trips: snapshot of the replay is clean.
        assert "dead.metric" not in dumps(db)

    def test_replay_marker_exclude_suffix(self, tmp_path):
        """Rollup series named in the marker's exclude= survive replayed
        retention, exactly as in the live RetentionPolicy pass."""
        path = tmp_path / "wal.log"
        with LogWriter(path) as w:
            w.write_many([make_point("m.raw", ts, 1.0) for ts in (10, 20)])
            w.write_many([make_point("m.raw.rollup", 0, 1.5)])
            w.delete_before(1_000, exclude_suffix=".rollup")
        db = load(path)
        assert db.metrics() == ["m.raw.rollup"]

    def test_replay_into_sharded_store(self, tmp_path):
        """The same marker log replays identically into a sharded store
        (retention fans out, index pruning happens per shard)."""
        path = tmp_path / "wal.log"
        with LogWriter(path) as w:
            for i in range(40):
                w.write(make_point(f"m.{i % 5}", i, float(i), {"node": f"n{i % 3}"}))
            w.delete_before(25)
            for i in range(10):
                w.write(make_point(f"m.{i % 5}", 100 + i, float(i), {"node": "n9"}))
        single = load(path)
        sharded = load(path, into=ShardedTSDB(3))
        assert dumps(sharded) == dumps(single)
        assert sharded.metrics() == single.metrics()

    def test_iter_log_still_yields_only_points(self, tmp_path):
        """Back-compat: point-level consumers skip markers silently."""
        path = tmp_path / "wal.log"
        with LogWriter(path) as w:
            w.write(make_point(ts=1))
            w.delete_before(5)
            w.write(make_point(ts=9))
        assert [p.timestamp for p in iter_log(path)] == [1, 9]

    def test_lenient_mode_skips_corrupt_markers(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("m 1 2.0\n!delete_before notanumber\nm 9 3.0\n")
        with pytest.raises(LogCorruption):
            load(path)
        db = load(path, strict=False)
        assert db.exact_point_count() == 2


class TestRetention:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetentionPolicy(raw_max_age=0)

    def test_enforce_drops_old_points(self):
        db = TSDB()
        for t in range(0, 1000, 100):
            db.put("m", t, float(t))
        policy = RetentionPolicy(raw_max_age=500)
        result = policy.enforce(db, now=1000)
        assert result.cutoff == 500
        assert result.dropped_points == 5
        remaining = db.run(Query("m", 0, 1000)).single()
        assert remaining.timestamps.min() == 500

    def test_enforce_with_rollup(self):
        db = TSDB()
        for t in range(0, 7200, 300):
            db.put("m", t, 10.0, {"n": "x"})
        policy = RetentionPolicy(
            raw_max_age=3600, rollup=Downsample.parse("1h-avg")
        )
        result = policy.enforce(db, now=7200)
        assert result.rolled_points > 0
        rolled = db.run(Query("m.rollup", 0, 7200, tags={"n": "x"}))
        assert not rolled.is_empty()
        assert rolled.single().values[0] == 10.0

    def test_rollup_series_never_rerolled(self):
        db = TSDB()
        for t in range(0, 7200, 300):
            db.put("m", t, 10.0)
        policy = RetentionPolicy(raw_max_age=1800, rollup=Downsample.parse("1h-avg"))
        policy.enforce(db, now=7200)
        policy.enforce(db, now=7200)
        assert "m.rollup.rollup" not in db.metrics()
