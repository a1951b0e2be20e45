"""Tiered storage engine tests: compaction, the journal, the retention policy.

The subsystem's contracts, in the order they stack:

- **Compaction equivalence** (hypothesis-pinned): for *any* interleaving
  of puts and retention markers, restoring the
  compacted log is **byte-identical** (via ``dumps``) to replaying the
  original — compaction may only change replay *cost*, never replay
  *result*;
- **Crash safety**: a crash mid-compaction leaves the original WAL
  intact plus a stale ``.compact.tmp`` the next run removes — never a
  half-written log; a file that is not a segment (wrong magic, 0 bytes)
  is refused and left byte-identical, never rewritten;
- **The retention policy**: tiers and drop, bucket-aligned, one batch
  per stage.  The raw→5m→1h→drop cascade rolls only complete buckets
  (every rolled bucket equals the downsample of its raw points,
  hypothesis-pinned), is scoped by tags (the regional hub's per-city
  horizons), writes one ``put_batch`` per rolling stage, is journaled
  by a ``DurableStore`` (replay reproduces the aged state) and
  replicates through the standard replication vocabulary.
"""

import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import (
    BatchBuilder,
    DataPoint,
    DurableStore,
    PointBatch,
    Query,
    SegmentCorruption,
    SeriesKey,
    ShardedTSDB,
    TSDB,
    compact_log,
    dumps,
    load,
    segment_stats,
)
from repro.tsdb.downsample import Downsample, apply as apply_downsample
from repro.tsdb.retention import RetentionPolicy, Tier
from repro.tsdb.tier import CompactionPolicy, Compactor
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
    """A single-point batch: one flush-sized block."""
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

    @given(ops=ops_lists)
    @settings(max_examples=60, deadline=None)
    def test_single_store_any_interleaving(self, tmp_path_factory, ops):
        wal = tmp_path_factory.mktemp("tier") / "w.seg"
        _write_ops(SegmentWriter(wal), ops)
        expected = dumps(load(wal, strict=False))

        result = compact_log(wal)
        assert dumps(load(wal)) == expected
        assert result.path == wal
        # Every retention marker got resolved away.
        assert segment_stats(wal, strict=True).marker_blocks == 0

    @given(ops=ops_lists)
    @settings(max_examples=40, deadline=None)
    def test_sharded_any_interleaving(self, tmp_path_factory, ops):
        """Compacting a journal restores into the store ``load(into=)``
        is handed — the frozen e2e's ``ShardedTSDB(4)`` — as the
        original replays."""
        wal = tmp_path_factory.mktemp("tier-sharded") / "w.seg"
        _write_ops(SegmentWriter(wal), ops)
        expected = dumps(load(wal, strict=False, into=ShardedTSDB(4)))

        compact_log(wal)
        assert dumps(load(wal, into=ShardedTSDB(4))) == expected
        # Applying the ops directly agrees too.
        direct = TSDB()
        _apply_ops(direct, ops)
        assert dumps(direct) == expected

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
        expected = dumps(load(wal))
        # A predecessor crashed between staging and rename: its torn
        # .compact.tmp must never be trusted, only removed.
        stage = tmp_path / ("w.seg" + COMPACT_TMP_SUFFIX)
        stage.write_bytes(b"RSEG\x00\x01\r\ngarbage torn tail")
        compact_log(wal)
        assert dumps(load(wal)) == expected
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
            recoverable = dumps(expected)
            assert dumps(load(wal, strict=False)) == recoverable
            compact_log(wal)  # lenient by default: recovers, then rewrites
            assert dumps(load(wal, strict=True)) == recoverable


class TestCompactionRefusesNonSegments:
    """A source without the segment magic is not a damaged segment to
    recover from: compaction raises, strict or lenient, and the file
    stays byte-identical (it used to be rewritten as an empty text
    snapshot that the journal then refused to reopen)."""

    def _flipped_magic(self, tmp_path):
        wal = tmp_path / "w.seg"
        store = DurableStore(TSDB(), wal)
        for i in range(1_000):
            store.put("air.co2", i, float(i), {"node": f"n{i % 4}"})
        store.close()
        raw = bytearray(wal.read_bytes())
        raw[3] ^= 0x01  # one flipped bit of the magic
        wal.write_bytes(bytes(raw))
        return wal

    def _empty(self, tmp_path):
        wal = tmp_path / "w.seg"
        wal.touch()  # a crash before the magic landed
        return wal

    @pytest.mark.parametrize("make", ["_flipped_magic", "_empty"])
    def test_compact_log_raises_and_leaves_the_file(self, tmp_path, make):
        wal = getattr(self, make)(tmp_path)
        before = wal.read_bytes()
        for strict in (False, True):  # the default is lenient
            with pytest.raises(SegmentCorruption, match="magic"):
                compact_log(wal, strict=strict)
            assert wal.read_bytes() == before
        assert not list(tmp_path.glob("*" + COMPACT_TMP_SUFFIX))

    @pytest.mark.parametrize("make", ["_flipped_magic", "_empty"])
    def test_cli_exits_1_naming_the_magic(self, tmp_path, make):
        from repro.cli import main as cli_main

        wal = getattr(self, make)(tmp_path)
        before = wal.read_bytes()
        for argv in (["compact", "--lenient", str(wal)], ["compact", str(wal)]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            message = str(exc.value.code)  # a str code exits with status 1
            assert "magic" in message and "--lenient" not in message
            assert wal.read_bytes() == before


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

    def test_non_segment_files_never_compact(self, tmp_path):
        """A trigger poll over a file that is not a segment raises
        instead of reading it as empty, and the file stays as it is."""
        wal = tmp_path / "w.log"
        wal.write_text("air.co2 1 2.0 node=n1\n" * 100)
        c = Compactor(wal, policy=CompactionPolicy(max_blocks=1))
        with pytest.raises(SegmentCorruption, match="magic"):
            c.maybe_compact()
        assert c.runs == 0
        assert wal.read_text() == "air.co2 1 2.0 node=n1\n" * 100
        assert Compactor(tmp_path / "missing.seg").stats() is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(max_blocks=0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_marker_blocks=0)
        with pytest.raises(ValueError):
            CompactionPolicy(min_bytes=-1)


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
        assert wal.read_bytes().startswith(SEGMENT_MAGIC)
        assert dumps(load(wal, strict=True)) == dumps(
            store.wrapped
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
        assert dumps(load(wal)) == dumps(
            store.wrapped
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


class TestRollupTiers:
    HOUR = 3600
    DAY = 86400

    def _policy(self):
        return RetentionPolicy.parse("1d:5m-avg:.5m", "10d:1h-avg:.1h")

    def _aged_store(self, db=None, now=30 * DAY):
        db = db if db is not None else TSDB()
        for t in range(0, now, self.HOUR // 2):  # 20-day history, 2/hour
            db.put("air.co2", t, float(t % 7), {"node": "n1"})
        return db

    def test_parse_and_validation(self):
        tier = Tier.parse("1d:300s-avg:.5m")
        assert tier.max_age == self.DAY and tier.downsample.width == 300
        with pytest.raises(ValueError, match="strictly increase"):
            RetentionPolicy.parse("2d:5m-avg:.5m", "1d:1h-avg:.1h")
        with pytest.raises(ValueError, match="strictly increase"):
            RetentionPolicy.parse("1d:5m-avg:.5m", max_age="1d")
        with pytest.raises(ValueError, match="distinct"):
            RetentionPolicy.parse("1d:5m-avg:.x", "2d:1h-avg:.x")
        with pytest.raises(ValueError, match="needs tiers"):
            RetentionPolicy()
        assert RetentionPolicy.parse(max_age="2h") == RetentionPolicy(max_age=7200)
        with pytest.raises(ValueError, match="start with"):
            Tier.parse("1d:5m-avg:5m")
        with pytest.raises(ValueError, match="spec"):
            Tier.parse("1d:5m-avg")

    def test_cascade_produces_all_tiers_in_one_pass(self):
        now = 30 * self.DAY
        db = self._aged_store(now=now)
        report = self._policy().enforce(db, now)
        assert sorted(db.metrics()) == ["air.co2", "air.co2.1h", "air.co2.5m"]
        assert len(report.cutoffs) == 2
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
        policy = RetentionPolicy((Tier(600, Downsample.parse("5m-avg"), ".5m"),))
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
        state = dumps(db)
        second = policy.enforce(db, now)
        assert second.rolled_points == 0 and second.dropped_points == 0
        assert dumps(db) == state

    @pytest.mark.parametrize("fmt", ["binary"])  # the one journal format
    def test_wal_replay_reproduces_tiered_state(self, tmp_path, fmt):
        now = 30 * self.DAY
        wal = tmp_path / "wal"
        # Journal the ingest AND the tiering through the same WAL.
        store = DurableStore(TSDB(), wal)
        self._aged_store(db=store, now=now)
        self._policy().enforce(store, now)
        store.close()
        assert wal.read_bytes().startswith(SEGMENT_MAGIC)
        assert dumps(load(wal, strict=True)) == dumps(
            store.wrapped
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
        assert dumps(follower) == dumps(
            primary.wrapped
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


class TestRetention:
    """The one policy's edges: drop-only, one tier, the drop after the
    tiers, and the two properties the twin loops it replaced broke —
    a half bucket never rolls, and a stage is one batch."""

    def test_validation(self):
        with pytest.raises(ValueError):
            RetentionPolicy(max_age=0)

    def test_enforce_drops_old_points(self):
        db = TSDB()
        for t in range(0, 1000, 100):
            db.put("m", t, float(t))
        policy = RetentionPolicy(max_age=500)
        result = policy.enforce(db, now=1000)
        assert result.cutoffs == (500,)
        assert result.dropped_points == 5
        remaining = db.run(Query("m", 0, 1000)).single()
        assert remaining.timestamps.min() == 500

    def test_enforce_with_rollup(self):
        db = TSDB()
        for t in range(0, 7200, 300):
            db.put("m", t, 10.0, {"n": "x"})
        policy = RetentionPolicy(
            (Tier(3600, Downsample.parse("1h-avg"), ".rollup"),)
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
        policy = RetentionPolicy(
            (Tier(1800, Downsample.parse("1h-avg"), ".rollup"),)
        )
        policy.enforce(db, now=7200)
        policy.enforce(db, now=7200)
        assert "m.rollup.rollup" not in db.metrics()

    @pytest.mark.parametrize("make", [TSDB, lambda: ShardedTSDB(4)],
                             ids=["single", "sharded4"])
    def test_drop_only_is_the_delete_before_primitive(self, make):
        """A drop-only pass deletes per series; the store ends exactly
        where the store-wide ``delete_before`` primitive leaves it."""
        pass_db, primitive_db = make(), make()
        for db in (pass_db, primitive_db):
            for node in _NODES:
                for t in range(0, 5000, 70):
                    db.put("air.co2", t, float(t), {"node": node})
        report = RetentionPolicy(max_age=1234).enforce(pass_db, now=5000)
        assert report.dropped_points == primitive_db.delete_before(5000 - 1234)
        assert dumps(pass_db) == dumps(
            primitive_db
        )

    def test_max_age_drops_the_coarsest_tier(self):
        day = 86400
        now = 30 * day
        tiers = ("1d:5m-avg:.5m", "10d:1h-avg:.1h")
        kept, dropped = TSDB(), TSDB()
        for db in (kept, dropped):
            for t in range(0, now, 1800):
                db.put("air.co2", t, float(t % 7), {"node": "n1"})
        RetentionPolicy.parse(*tiers).enforce(kept, now)
        report = RetentionPolicy.parse(*tiers, max_age="20d").enforce(
            dropped, now
        )
        assert report.cutoffs[-1] == now - 20 * day
        assert report.dropped[-1] > 0
        hourly = dropped.series_slice(_key("air.co2.1h", "n1"))
        assert hourly.timestamps.min() >= now - 20 * day
        # The finer resolutions are what the tiers alone leave.
        for metric in ("air.co2", "air.co2.5m"):
            key = _key(metric, "n1")
            assert dropped.series_slice(key).timestamps.tolist() == (
                kept.series_slice(key).timestamps.tolist()
            )

    @given(
        width=st.sampled_from([60, 300, 3600]),
        age=st.integers(min_value=1, max_value=4 * 3600),
        agg=st.sampled_from(["avg", "sum", "min", "max", "count"]),
        scoped=st.booleans(),
        points=st.lists(
            st.tuples(st.sampled_from(("a", "b")),
                      st.integers(min_value=0, max_value=6 * 3600), _values),
            max_size=80,
        ),
        steps=st.lists(st.integers(min_value=1, max_value=5000),
                       min_size=1, max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_rolled_buckets_equal_the_downsample_of_their_raw_points(
        self, width, age, agg, scoped, points, steps
    ):
        """However the pass times fall, every rolled bucket is the
        downsample of *all* its raw points: a bucket straddling a cutoff
        stays raw until it is complete, never rolls as its later half."""
        ds = Downsample(width, agg)
        policy = RetentionPolicy((Tier(age, ds, ".rollup"),))
        db, raw = TSDB(), TSDB()
        for store in (db, raw):
            for city, t, v in points:
                store.put("air.co2", t, v, {"city": city})
        now = 0
        for step in steps:
            now += step
            policy.enforce(db, now, tags={"city": "a"} if scoped else None)
        for city in ("a", "b"):
            tags = {"city": city}
            original = raw.series_slice(SeriesKey.make("air.co2", tags))
            rolled = db.series_slice(SeriesKey.make("air.co2.rollup", tags))
            if scoped and city == "b":
                assert len(rolled) == 0
                continue
            for ts, val in zip(rolled.timestamps.tolist(),
                               rolled.values.tolist()):
                bucket = apply_downsample(original.between(ts, ts + width - 1), ds)
                assert bucket.timestamps.tolist() == [ts]
                assert bucket.values.tolist() == [val]

    @pytest.mark.parametrize("make", [TSDB, lambda: ShardedTSDB(4)],
                             ids=["single", "sharded4"])
    def test_one_batch_block_per_rolling_stage(self, tmp_path, make):
        """A stage journals one batch block, however many buckets it
        rolls (one ``put`` per bucket appended one block each), and the
        WAL still replays to the live store."""
        wal = tmp_path / "wal.seg"
        store = DurableStore(make(), wal)
        day = 86400
        now = 3 * day
        ts = np.arange(0, now, 600, dtype=np.int64)
        builder = BatchBuilder()
        for i in range(20):
            builder.add_series("air.co2", ts, np.sin(ts / 1e4) + i,
                               {"node": f"n{i}"})
        store.put_batch(builder.build())
        report = RetentionPolicy.parse(
            "1d:1h-avg:.1h", "2d:1d-avg:.1d", max_age="3d"
        ).enforce(store, now)
        store.close()
        assert report.rolled[0] > 20 and report.rolled[1] > 0
        assert segment_stats(wal).batch_blocks == 1 + 2  # ingest + 2 stages
        assert dumps(load(wal, strict=True)) == dumps(
            store.wrapped
        )


class TestPerCityRetention:
    def test_scoped_retention_prunes_only_its_city(self):
        from repro.region.hub import RegionalHub
        from repro.region.policy import CityPolicy
        from repro.simclock import Scheduler, SimClock

        ts = np.arange(0, 8 * 3600, 600, dtype=np.int64)
        vals = np.linspace(380.0, 420.0, ts.size)
        now = int(ts[-1])
        scheduler = Scheduler(SimClock(start=0))
        store = TSDB()
        hub = RegionalHub(store, scheduler, flush_interval_s=now)
        pol_a = CityPolicy(
            "trondheim",
            retention=RetentionPolicy(
                (Tier(3600, Downsample.parse("1h-avg"), ".rollup"),)
            ),
        )
        pol_b = CityPolicy("vejle")  # no retention: full history kept
        a, b = hub.register_city(pol_a), hub.register_city(pol_b)
        a.put_batch(PointBatch.for_series("air.co2.ppm", ts, vals, {"node": "a"}))
        b.put_batch(PointBatch.for_series("air.co2.ppm", ts, vals, {"node": "b"}))
        # A shared, city-less series must never be touched by city policies.
        hub.drain_all()
        store.put_series("traffic.jam_factor", ts, vals, {"road": "e6"})

        hub.start()
        scheduler.run_until(now)  # one tick: flush, then each lane's policy
        assert hub.stats.retention_runs == 1  # vejle has no policy
        cutoff = (now - 3600) // 3600 * 3600  # the last complete hour

        (key_a,) = [
            k for k in store.series_for_metric("air.co2.ppm")
            if k.tag("city") == "trondheim"
        ]
        (key_b,) = [
            k for k in store.series_for_metric("air.co2.ppm")
            if k.tag("city") == "vejle"
        ]
        assert int(store.series_slice(key_a).timestamps[0]) == cutoff
        assert int(store.series_slice(key_b).timestamps[0]) == 0  # untouched
        shared = store.series_slice(
            store.series_for_metric("traffic.jam_factor")[0]
        )
        assert int(shared.timestamps[0]) == 0  # untouched
        # Rollup series exists, tagged with the city, holding the old data.
        rollup_keys = store.series_for_metric("air.co2.ppm.rollup")
        assert [k.tag("city") for k in rollup_keys] == ["trondheim"]
        assert hub.city_stats("trondheim")["retention_rolled"] == len(
            store.series_slice(rollup_keys[0])
        )

    def test_retention_drains_backlog_before_rolling(self):
        """Stragglers queued behind a throttle must flush before the
        rollup pass; otherwise a later pass re-rolls only the stragglers
        and last-write-wins overwrites the correct bucket average."""
        from repro.region.hub import RegionalHub
        from repro.region.policy import CityPolicy
        from repro.simclock import Scheduler, SimClock

        scheduler = Scheduler(SimClock(start=0))
        store = TSDB()
        now = 2 * 3600
        hub = RegionalHub(store, scheduler, flush_interval_s=now)
        policy = CityPolicy(
            "trondheim",
            max_flush_points=6,  # throttled: backlog builds up
            retention=RetentionPolicy(
                (Tier(3600, Downsample.parse("1h-avg"), ".rollup"),)
            ),
        )
        ingress = hub.register_city(policy)
        ts = np.arange(0, 3600, 300, dtype=np.int64)  # one pre-cutoff hour
        vals = np.linspace(100.0, 210.0, ts.size)
        for i in range(ts.size):  # one batch per point → 12 queued batches
            ingress.put_batch(
                PointBatch.for_series(
                    "air.co2.ppm", ts[i : i + 1], vals[i : i + 1], {"node": "a"}
                )
            )
        hub.start()
        scheduler.run_until(now)  # the tick's pump moves 6 of the 12 points
        (rollup_key,) = store.series_for_metric("air.co2.ppm.rollup")
        sl = store.series_slice(rollup_key)
        # One bucket holding the average of ALL twelve points — not just
        # the throttled slice that happened to be flushed already.
        assert sl.timestamps.tolist() == [0]
        np.testing.assert_allclose(sl.values, [vals.mean()])
        assert store.series_for_metric("air.co2.ppm") == []  # raw pruned


class TestCityPolicyTiers:
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
            retention=RetentionPolicy.parse("1d:5m-avg:.5m", "10d:1h-avg:.1h"),
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
