"""Tiered storage engine tests: compaction, cold paging, rollup tiers.

The subsystem's contracts, in the order they stack:

- **Compaction equivalence** (hypothesis-pinned): for *any* interleaving
  of puts and retention markers, in either durability format, single or
  sharded, restoring the compacted log is **byte-identical** (via
  ``dumps``) to replaying the original — compaction may only change
  replay *cost*, never replay *result*;
- **Crash safety**: a crash mid-compaction leaves the original WAL
  intact plus a stale ``.compact.tmp`` the next run removes — never a
  half-written log;
- **Cold-shard paging**: keyed operations replay exactly the owning
  shard; a fully paged :class:`ColdShardPager` equals an eager
  ``restore_from_dir`` byte-for-byte;
- **Rollup tiers**: the raw→5m→1h cascade is bucket-aligned, scoped,
  journaled by a ``DurableStore`` (replay reproduces the tiered state)
  and replicates through the standard replication vocabulary.
"""

import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import (
    ColdShardPager,
    DataPoint,
    DurableStore,
    PointBatch,
    Query,
    SeriesKey,
    ShardedTSDB,
    TSDB,
    compact_log,
    convert_log,
    dumps,
    load,
    segment_stats,
)
from repro.tsdb.persistence import LogWriter, detect_format
from repro.tsdb.sharded import shard_for_key
from repro.tsdb.tier import CompactionPolicy, Compactor, Tier, TierPolicy, compact_dir
from repro.tsdb.segments import SEGMENT_MAGIC, SegmentWriter
from repro.tsdb.tier.compact import COMPACT_TMP_SUFFIX

# -- shared op-interleaving machinery ------------------------------------

_METRICS = ("air.co2", "air.no2", "weather.temp")
_NODES = ("n1", "n2", "n3", "n4")

_timestamps = st.integers(min_value=0, max_value=100_000)
_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)

_put_op = st.tuples(
    st.just("put"),
    st.sampled_from(_METRICS),
    st.sampled_from(_NODES),
    _timestamps,
    _values,
)
_delete_before_op = st.tuples(st.just("delete_before"), _timestamps)
_delete_series_op = st.tuples(
    st.just("delete_series_before"),
    st.sampled_from(_METRICS),
    st.sampled_from(_NODES),
    _timestamps,
)
ops_lists = st.lists(
    st.one_of(_put_op, _delete_before_op, _delete_series_op),
    min_size=0,
    max_size=60,
)


def _key(metric: str, node: str) -> SeriesKey:
    return SeriesKey.make(metric, {"node": node})


def _one(key: SeriesKey, ts: int, val: float) -> PointBatch:
    """A single-point batch: one flush-sized block in either writer."""
    return PointBatch.from_points([DataPoint(key, ts, val)])


def _write_ops(writer, ops) -> None:
    """Append an op interleaving to a WAL writer, one block per marker
    (flushes keep the file fragmented — the compactor's natural prey)."""
    for op in ops:
        if op[0] == "put":
            _, metric, node, ts, val = op
            writer.write_batch(_one(_key(metric, node), ts, val))
        elif op[0] == "delete_before":
            writer.delete_before(op[1])
        else:
            _, metric, node, ts = op
            writer.delete_series_before(_key(metric, node), ts)
    writer.close()


def _apply_ops(db, ops) -> None:
    for op in ops:
        if op[0] == "put":
            _, metric, node, ts, val = op
            db.put(metric, ts, val, {"node": node})
        elif op[0] == "delete_before":
            db.delete_before(op[1])
        else:
            _, metric, node, ts = op
            db.delete_series_before(_key(metric, node), ts)


class TestCompactionEquivalence:
    """compact(log) restores byte-identical to replay(log)."""

    @given(ops=ops_lists, fmt=st.sampled_from(["binary", "text"]))
    @settings(max_examples=60, deadline=None)
    def test_single_store_any_interleaving(self, tmp_path_factory, ops, fmt):
        wal = tmp_path_factory.mktemp("tier") / ("w.seg" if fmt == "binary" else "w.log")
        writer = SegmentWriter(wal) if fmt == "binary" else LogWriter(wal)
        _write_ops(writer, ops)
        expected = dumps(load(wal, strict=False), format="binary")

        result = compact_log(wal)
        assert dumps(load(wal), format="binary") == expected
        # The compacted file stays in the source format...
        assert result.path == wal
        if fmt == "binary":
            # ...and every retention marker got resolved away.
            assert segment_stats(wal, strict=True).marker_blocks == 0

    @given(ops=ops_lists, n=st.sampled_from([1, 2, 4, 7]),
           fmt=st.sampled_from(["binary", "text"]))
    @settings(max_examples=40, deadline=None)
    def test_sharded_any_interleaving(self, tmp_path_factory, ops, n, fmt):
        directory = tmp_path_factory.mktemp("tier-sharded")
        ext = "seg" if fmt == "binary" else "log"
        cls = SegmentWriter if fmt == "binary" else LogWriter
        writers = [
            cls(directory / f"shard-{i}-of-{n}.{ext}") for i in range(n)
        ]
        # Route ops exactly as the sharded store would: keyed ops to the
        # owning shard's WAL, global markers to every shard's.
        for op in ops:
            if op[0] == "put":
                _, metric, node, ts, val = op
                key = _key(metric, node)
                w = writers[shard_for_key(key, n)]
                w.write_batch(_one(key, ts, val))
            elif op[0] == "delete_before":
                for w in writers:
                    w.delete_before(op[1])
            else:
                _, metric, node, ts = op
                key = _key(metric, node)
                writers[shard_for_key(key, n)].delete_series_before(key, ts)
        for w in writers:
            w.close()

        expected = dumps(
            ShardedTSDB.restore_from_dir(directory), format="binary"
        )
        results = compact_dir(directory)
        assert set(results) == set(range(n))
        restored = ShardedTSDB.restore_from_dir(directory)
        assert dumps(restored, format="binary") == expected
        # Replaying ops directly agrees too (routing fidelity).
        direct = ShardedTSDB(n)
        _apply_ops(direct, ops)
        assert dumps(direct, format="binary") == expected

    def test_marker_heavy_log_shrinks(self, tmp_path):
        wal = tmp_path / "w.seg"
        with SegmentWriter(wal) as w:
            for i in range(500):
                w.write_batch(_one(_key("air.co2", "n1"), 1000 + i, float(i)))
            w.delete_before(1400)
        before = segment_stats(wal)
        result = compact_log(wal)
        after = segment_stats(wal)
        assert before.blocks == 501 and before.marker_blocks == 1
        assert after.batch_blocks == 1 and after.marker_blocks == 0
        assert result.bytes_ratio > 5.0
        assert result.points == 100  # only the points the marker spared

    def test_text_to_binary_migration(self, tmp_path):
        wal = tmp_path / "w.log"
        with LogWriter(wal) as w:
            for i in range(20):
                w.write(DataPoint(_key("air.co2", "n1"), i, float(i)))
        expected = dumps(load(wal), format="binary")
        # Upgrading is convert_log's job; compaction keeps the format.
        seg = tmp_path / "w.seg"
        convert_log(wal, seg)
        compact_log(seg)
        assert segment_stats(seg, strict=True).batch_blocks == 1
        assert dumps(load(seg), format="binary") == expected
        compact_log(wal)
        assert detect_format(wal) == "text"
        assert dumps(load(wal), format="binary") == expected


class TestCompactionCrashSafety:
    def _fragmented(self, path, n=50):
        with SegmentWriter(path) as w:
            for i in range(n):
                w.write_batch(_one(_key("air.co2", "n1"), i, float(i)))

    def test_crash_mid_stage_leaves_original_intact(self, tmp_path, monkeypatch):
        wal = tmp_path / "w.seg"
        self._fragmented(wal)
        original = wal.read_bytes()

        import repro.tsdb.tier.compact as compact_mod

        real_snapshot = compact_mod.snapshot

        def torn_snapshot(db, dest, **kwargs):
            real_snapshot(db, dest, **kwargs)
            # Tear the staged file's tail, then die — the crash window
            # after some bytes hit disk but before the atomic rename.
            data = Path(dest).read_bytes()
            Path(dest).write_bytes(data[: len(data) // 2])
            raise RuntimeError("power loss")

        monkeypatch.setattr(compact_mod, "snapshot", torn_snapshot)
        with pytest.raises(RuntimeError, match="power loss"):
            compact_log(wal)
        assert wal.read_bytes() == original
        assert not list(tmp_path.glob("*" + COMPACT_TMP_SUFFIX))

    def test_stale_tmp_from_dead_predecessor_is_discarded(self, tmp_path):
        wal = tmp_path / "w.seg"
        self._fragmented(wal)
        expected = dumps(load(wal), format="binary")
        # A predecessor crashed between staging and rename: its torn
        # .compact.tmp must never be trusted, only removed.
        stage = tmp_path / ("w.seg" + COMPACT_TMP_SUFFIX)
        stage.write_bytes(b"RSEG\x00\x01\r\ngarbage torn tail")
        compact_log(wal)
        assert dumps(load(wal), format="binary") == expected
        assert not stage.exists()

    def test_torn_tail_compacts_to_recoverable_prefix(self, tmp_path):
        """Every damage kind compacts to exactly what lenient recovery
        reads: a torn tail or a corrupted length field keeps the clean
        prefix, a CRC-flipped middle block loses that block alone."""
        n, hit = 50, 25
        for damage, survivors in (
            ("torn-tail", range(n)),
            ("crc-flip", [i for i in range(n) if i != hit]),
            ("length-field", range(hit)),
        ):
            wal = tmp_path / f"{damage}.seg"
            self._fragmented(wal, n=n)
            raw = bytearray(wal.read_bytes())
            block = (len(raw) - len(SEGMENT_MAGIC)) // n  # identical blocks
            start = len(SEGMENT_MAGIC) + hit * block
            if damage == "torn-tail":
                raw += b"\x01\xff\xff"  # torn final append
            elif damage == "crc-flip":
                raw[start + 20] ^= 0xFF  # payload byte, block `hit`
            else:
                raw[start + 2] ^= 0x40  # length field, block `hit`
            wal.write_bytes(bytes(raw))
            expected = TSDB()
            for i in survivors:
                expected.put("air.co2", i, float(i), {"node": "n1"})
            recoverable = dumps(expected, format="binary")
            assert dumps(load(wal, strict=False), format="binary") == recoverable
            compact_log(wal)  # lenient by default: recovers, then rewrites
            assert dumps(load(wal, strict=True), format="binary") == recoverable


class TestCompactorPolicy:
    def test_trigger_thresholds(self, tmp_path):
        wal = tmp_path / "w.seg"
        with SegmentWriter(wal) as w:
            for i in range(10):
                w.write_batch(_one(_key("air.co2", "n1"), i, float(i)))
        c = Compactor(wal, policy=CompactionPolicy(max_blocks=20))
        assert not c.should_compact()
        assert c.maybe_compact() is None and c.runs == 0
        tight = Compactor(wal, policy=CompactionPolicy(max_blocks=4))
        result = tight.maybe_compact()
        assert result is not None and tight.runs == 1
        assert result.blocks_after <= 2  # one batch block + snapshot header
        # Once compacted, the same policy no longer triggers.
        assert tight.maybe_compact() is None and tight.runs == 1

    def test_min_bytes_floor(self, tmp_path):
        wal = tmp_path / "w.seg"
        with SegmentWriter(wal) as w:
            for i in range(10):
                w.write_batch(_one(_key("air.co2", "n1"), i, float(i)))
        c = Compactor(
            wal, policy=CompactionPolicy(max_blocks=4, min_bytes=1 << 30)
        )
        assert not c.should_compact()  # tiny files never trigger

    def test_text_logs_never_trigger(self, tmp_path):
        wal = tmp_path / "w.log"
        with LogWriter(wal) as w:
            for i in range(100):
                w.write(DataPoint(_key("air.co2", "n1"), i, float(i)))
        c = Compactor(wal, policy=CompactionPolicy(max_blocks=1))
        assert c.stats() is None and c.maybe_compact() is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(max_blocks=0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_marker_blocks=0)
        with pytest.raises(ValueError):
            CompactionPolicy(min_bytes=-1)

    def test_compact_dir_with_policy_skips_compact_shards(self, tmp_path):
        db = ShardedTSDB(2)
        for i in range(20):
            db.put("air.co2", i, float(i), {"node": f"n{i % 4}"})
        db.snapshot_to_dir(tmp_path)
        # Fragment exactly one shard with appended per-point blocks.
        key = next(
            k for k in (_key("air.co2", n) for n in _NODES)
            if shard_for_key(k, 2) == 0
        )
        with SegmentWriter(tmp_path / "shard-0-of-2.seg", append=True) as w:
            for i in range(40):
                w.write_batch(_one(key, 100 + i, float(i)))
        results = compact_dir(tmp_path, policy=CompactionPolicy(max_blocks=8))
        assert set(results) == {0}


class TestDurableStore:
    @pytest.mark.parametrize("fmt", ["binary"])  # the one journal format
    def test_replay_rebuilds_store(self, tmp_path, fmt):
        wal = tmp_path / "wal"
        store = DurableStore(TSDB(), wal)
        store.put("air.co2", 100, 400.0, {"node": "n1"})
        store.put("air.co2", 110, 401.0, {"node": "n2"})
        store.put_batch(
            PointBatch.from_points(
                [DataPoint(_key("air.no2", "n1"), t, float(t)) for t in range(5)]
            )
        )
        store.put_series("weather.temp", [0, 60, 120], [1.0, 2.0, 3.0],
                         {"node": "n3"})
        store.put_batch(
            PointBatch.from_points([DataPoint(_key("air.co2", "n1"), 150, 402.0)])
        )
        store.delete_before(50)
        store.delete_series_before(_key("air.no2", "n1"), 3)
        store.close()
        assert detect_format(wal) == fmt
        assert dumps(load(wal, strict=True), format="binary") == dumps(
            store.wrapped, format="binary"
        )

    def test_wal_precedes_commit(self, tmp_path):
        # Durability before visibility: the journal carries the block
        # even though the store refused the batch.
        class Refusing(TSDB):
            def put_batch(self, batch):
                raise RuntimeError("store down")

        wal = tmp_path / "wal.seg"
        store = DurableStore(Refusing(), wal)
        with pytest.raises(RuntimeError):
            store.put("air.co2", 1, 1.0, {"node": "n1"})
        store.close()
        assert load(wal).point_count == 1

    def test_suspend_wal_compaction_mid_stream(self, tmp_path):
        wal = tmp_path / "wal.seg"
        store = DurableStore(TSDB(), wal)
        for i in range(100):
            store.put("air.co2", i, float(i), {"node": "n1"})
        store.delete_before(50)
        with store.suspend_wal() as path:
            assert path == wal
            result = compact_log(path)
            assert result.blocks_after < result.blocks_before
        # The reopened journal keeps appending where compaction left off.
        for i in range(100, 110):
            store.put("air.co2", i, float(i), {"node": "n1"})
        store.close()
        assert dumps(load(wal), format="binary") == dumps(
            store.wrapped, format="binary"
        )

    def test_writes_during_suspend_block_until_reopen(self, tmp_path):
        store = DurableStore(TSDB(), tmp_path / "wal.seg")
        entered = threading.Event()
        release = threading.Event()
        written = threading.Event()

        def writer():
            entered.wait(5)
            store.put("air.co2", 1, 1.0, {"node": "n1"})
            written.set()

        t = threading.Thread(target=writer)
        t.start()
        with store.suspend_wal():
            entered.set()
            # The concurrent write must park on the store lock while the
            # journal is closed — it may not slip through un-journaled.
            assert not written.wait(0.15)
            release.set()
        t.join(5)
        assert written.is_set()
        store.close()
        assert load(store.wal_path).point_count == 1


class TestColdShardPager:
    @pytest.fixture()
    def snapshot_dir(self, tmp_path):
        db = ShardedTSDB(4)
        for metric in _METRICS:
            for node in _NODES:
                for t in range(25):
                    db.put(metric, t * 60, float(t), {"node": node})
        db.snapshot_to_dir(tmp_path)
        self.eager = db
        return tmp_path

    def test_keyed_read_pages_only_owning_shard(self, snapshot_dir):
        pager = ColdShardPager(snapshot_dir)
        assert pager.resident_shards == ()
        assert pager.resident_points == 0
        key = _key("air.co2", "n1")
        sl = pager.series_slice(key)
        owner = pager.shard_of(key)
        assert pager.resident_shards == (owner,)
        assert np.array_equal(
            sl.timestamps, self.eager.series_slice(key).timestamps
        )
        # Footprint tracks only the resident shard.
        assert 0 < pager.resident_points < self.eager.point_count

    @pytest.mark.parametrize(
        "read",
        [
            "series_slice",
            "series_latest",
            "series_generation",
            "series_reshape_generation",
        ],
    )
    def test_every_keyed_read_pages_only_owning_shard(self, snapshot_dir, read):
        # All four enter through the pager's one keyed lookup, _series.
        pager = ColdShardPager(snapshot_dir)
        eager = ShardedTSDB.restore_from_dir(snapshot_dir)
        key = _key("air.no2", "n3")
        got, want = getattr(pager, read)(key), getattr(eager, read)(key)
        assert pager.resident_shards == (pager.shard_of(key),)
        if read == "series_slice":
            got, want = got.values.tolist(), want.values.tolist()
        assert got == want

    def test_keyed_write_pages_before_committing(self, snapshot_dir):
        pager = ColdShardPager(snapshot_dir)
        key = _key("air.co2", "n1")
        # Overwrite a snapshotted timestamp on a *cold* shard: if the
        # shard paged in after the write, replay would resurrect the
        # snapshotted value over the fresh one.
        pager.put("air.co2", 0, 999.0, {"node": "n1"})
        sl = pager.series_slice(key, 0, 0)
        assert sl.values[0] == 999.0

    def test_derived_keyed_writes_page_only_owning_shards(self, snapshot_dir):
        # put_series / put_batch are keyed writes: they page the shards
        # their series route to, no more.
        pager = ColdShardPager(snapshot_dir)
        key = _key("air.co2", "n1")
        pager.put_series("air.co2", [5000, 5060], [1.0, 2.0], {"node": "n1"})
        assert pager.resident_shards == (pager.shard_of(key),)

        pager = ColdShardPager(snapshot_dir)
        points = [
            DataPoint(_key("air.no2", "n2"), 5000, 1.0),
            DataPoint(_key("weather.temp", "n3"), 5000, 2.0),
        ]
        assert pager.put_batch(PointBatch.from_points(points)) == 2
        assert pager.resident_shards == tuple(
            sorted({pager.shard_of(p.key) for p in points})
        )
        assert len(pager.resident_shards) < pager.num_shards
        # Paging late changes nothing: the same write on an eager restore.
        eager = ShardedTSDB.restore_from_dir(snapshot_dir)
        eager.put_batch(PointBatch.from_points(points))
        assert dumps(pager, format="binary") == dumps(eager, format="binary")

    def test_global_query_pages_everything(self, snapshot_dir):
        pager = ColdShardPager(snapshot_dir)
        got = pager.run(Query("air.co2", 0, 10_000, tags={"node": "*"}))
        assert pager.resident_shards == (0, 1, 2, 3)
        want = self.eager.run(Query("air.co2", 0, 10_000, tags={"node": "*"}))
        assert sorted(s.source_series for s in got.series) == sorted(
            s.source_series for s in want.series
        )

    def test_fully_paged_pager_equals_eager_restore(self, snapshot_dir):
        pager = ColdShardPager(snapshot_dir)
        assert dumps(pager, format="binary") == dumps(
            ShardedTSDB.restore_from_dir(snapshot_dir), format="binary"
        )

    def test_match_delegates_with_full_key_set(self, snapshot_dir):
        pager = ColdShardPager(snapshot_dir)
        keys = pager._match("air.co2", {"node": "n1|n2"})
        assert len(keys) == 2 and pager.resident_shards == (0, 1, 2, 3)

    def test_private_probes_never_page(self, snapshot_dir):
        pager = ColdShardPager(snapshot_dir)
        with pytest.raises(AttributeError):
            pager._no_such_private_thing
        repr(pager)
        assert pager.resident_shards == ()

    def test_misrouted_shard_file_detected_on_page_in(self, tmp_path):
        db = ShardedTSDB(2)
        for node in _NODES:
            db.put("air.co2", 0, 1.0, {"node": node})
        db.snapshot_to_dir(tmp_path)
        a = (tmp_path / "shard-0-of-2.seg").read_bytes()
        b = (tmp_path / "shard-1-of-2.seg").read_bytes()
        (tmp_path / "shard-0-of-2.seg").write_bytes(b)
        (tmp_path / "shard-1-of-2.seg").write_bytes(a)
        pager = ColdShardPager(tmp_path)
        with pytest.raises(ValueError, match="routes to"):
            pager.metrics()


class TestRollupTiers:
    HOUR = 3600
    DAY = 86400

    def _policy(self):
        return TierPolicy.parse("1d:5m-avg:.5m", "10d:1h-avg:.1h")

    def _aged_store(self, db=None, now=30 * DAY):
        db = db if db is not None else TSDB()
        for t in range(0, now, self.HOUR // 2):  # 20-day history, 2/hour
            db.put("air.co2", t, float(t % 7), {"node": "n1"})
        return db

    def test_parse_and_validation(self):
        tier = Tier.parse("1d:300s-avg:.5m")
        assert tier.max_age == self.DAY and tier.downsample.width == 300
        with pytest.raises(ValueError, match="strictly increase"):
            TierPolicy.parse("2d:5m-avg:.5m", "1d:1h-avg:.1h")
        with pytest.raises(ValueError, match="distinct"):
            TierPolicy.parse("1d:5m-avg:.x", "2d:1h-avg:.x")
        with pytest.raises(ValueError, match="start with"):
            Tier.parse("1d:5m-avg:5m")
        with pytest.raises(ValueError, match="spec"):
            Tier.parse("1d:5m-avg")

    def test_cascade_produces_all_tiers_in_one_pass(self):
        now = 30 * self.DAY
        db = self._aged_store(now=now)
        report = self._policy().enforce(db, now)
        assert sorted(db.metrics()) == ["air.co2", "air.co2.1h", "air.co2.5m"]
        assert len(report.stages) == 2
        assert report.rolled_points > 0 and report.dropped_points > 0
        # Raw keeps only the last day (bucket-aligned).
        raw = db.series_slice(_key("air.co2", "n1"))
        assert raw.timestamps.min() >= now - self.DAY - 300
        # The 1h tier exists because fresh 5m points older than the 1h
        # horizon cascaded down within the same pass.
        hourly = db.series_slice(_key("air.co2.1h", "n1"))
        assert len(hourly) > 0
        assert (np.diff(hourly.timestamps) % self.HOUR == 0).all()

    def test_only_complete_buckets_roll(self):
        db = TSDB()
        width = 300
        policy = TierPolicy((Tier(600, Tier.parse("1d:5m-avg:.5m").downsample,
                                  ".5m"),))
        # now lands mid-bucket: the straddling bucket must stay raw.
        now = 10 * width + 150
        for t in range(0, now, 60):
            db.put("air.co2", t, 1.0, {"node": "n1"})
        policy.enforce(db, now)
        cutoff = ((now - 600) // width) * width
        raw = db.series_slice(_key("air.co2", "n1"))
        assert raw.timestamps.min() == cutoff  # nothing past the bucket edge
        rolled = db.series_slice(_key("air.co2.5m", "n1"))
        assert rolled.timestamps.max() < cutoff

    def test_tags_scope_the_pass(self):
        now = 30 * self.DAY
        db = TSDB()
        for t in range(0, now, self.HOUR):
            db.put("air.co2", t, 1.0, {"node": "n1", "city": "a"})
            db.put("air.co2", t, 2.0, {"node": "n2", "city": "b"})
        self._policy().enforce(db, now, tags={"city": "a"})
        assert len(db.series_slice(
            SeriesKey.make("air.co2", {"node": "n2", "city": "b"}))
        ) == now // self.HOUR  # city b untouched
        assert len(db.series_slice(
            SeriesKey.make("air.co2.5m", {"node": "n1", "city": "a"}))
        ) > 0

    def test_enforce_is_idempotent_until_time_advances(self):
        now = 30 * self.DAY
        db = self._aged_store(now=now)
        policy = self._policy()
        policy.enforce(db, now)
        state = dumps(db, format="binary")
        second = policy.enforce(db, now)
        assert second.rolled_points == 0 and second.dropped_points == 0
        assert dumps(db, format="binary") == state

    @pytest.mark.parametrize("fmt", ["binary"])  # the one journal format
    def test_wal_replay_reproduces_tiered_state(self, tmp_path, fmt):
        now = 30 * self.DAY
        wal = tmp_path / "wal"
        # Journal the ingest AND the tiering through the same WAL.
        store = DurableStore(TSDB(), wal)
        self._aged_store(db=store, now=now)
        self._policy().enforce(store, now)
        store.close()
        assert detect_format(wal) == fmt
        assert dumps(load(wal, strict=True), format="binary") == dumps(
            store.wrapped, format="binary"
        )

    def test_tiering_replicates_through_the_log(self):
        from repro.replication import ReplicatedStore
        from repro.tsdb.segments import (
            DeleteBefore,
            DeleteSeriesBefore,
            decode_block,
            decode_frame,
        )

        now = 30 * self.DAY
        primary = ReplicatedStore(TSDB())
        self._aged_store(db=primary, now=now)
        self._policy().enforce(primary, now)
        # Apply the replication stream the way a follower would.
        follower = TSDB()
        for _, frame in primary.log.pending_after(0):
            item = decode_block(*decode_frame(frame))
            if isinstance(item, DeleteSeriesBefore):
                follower.delete_series_before(item.key, item.cutoff)
            elif isinstance(item, DeleteBefore):
                follower.delete_before(item.cutoff,
                                       exclude_suffix=item.exclude_suffix)
            else:
                follower.put_batch(item)
        assert dumps(follower, format="binary") == dumps(
            primary.wrapped, format="binary"
        )

    def test_sharded_store_supported(self):
        now = 30 * self.DAY
        db = ShardedTSDB(3)
        for node in _NODES:
            for t in range(0, now, self.HOUR):
                db.put("air.co2", t, float(t % 3), {"node": node})
        report = self._policy().enforce(db, now)
        assert report.dropped_points > 0
        assert sorted(db.metrics()) == ["air.co2", "air.co2.1h", "air.co2.5m"]


class TestCityPolicyTiers:
    def test_retention_and_tiers_are_mutually_exclusive(self):
        from repro.region.policy import CityPolicy
        from repro.tsdb.retention import RetentionPolicy

        with pytest.raises(ValueError, match="mutually exclusive"):
            CityPolicy(
                city="trondheim",
                retention=RetentionPolicy(raw_max_age=3600),
                tiers=TierPolicy.parse("1d:5m-avg:.5m"),
            )

    def test_hub_enforces_tier_policy_per_city(self):
        from repro.region.hub import RegionalHub
        from repro.region.policy import CityPolicy
        from repro.simclock import Scheduler, SimClock

        day = 86400
        now = 30 * day
        scheduler = Scheduler(SimClock(start=0))
        hub = RegionalHub(TSDB(), scheduler, flush_interval_s=now)
        ingress = hub.register_city(CityPolicy(
            city="trondheim",
            tiers=TierPolicy.parse("1d:5m-avg:.5m", "10d:1h-avg:.1h"),
        ))
        ingress.put_batch(PointBatch.from_points([
            DataPoint(
                SeriesKey.make("air.co2",
                               {"city": "trondheim", "node": "n1"}),
                t, float(t % 7),
            )
            for t in range(0, now, 1800)
        ]))
        hub.start()
        scheduler.run_until(now)  # one tick: flush, then the tier pass
        assert hub.stats.retention_runs == 1
        assert sorted(hub.store.metrics()) == [
            "air.co2", "air.co2.1h", "air.co2.5m"
        ]
        assert hub.city_stats("trondheim")["retention_dropped"] > 0
