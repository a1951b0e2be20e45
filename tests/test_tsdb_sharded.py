"""Equivalence suite: shard count is semantically invisible.

For randomized workloads (out-of-order, duplicate, multi-metric/tag
points, mixed ingestion APIs), every observable of ``ShardedTSDB(n)`` —
queries, aggregation, downsampling, retention, snapshots, suggestions —
must be byte-identical to a single-store ``TSDB`` fed the same stream,
for n ∈ {1, 2, 4, 7}.  All randomness is seeded: the suite is fully
deterministic (the CI sharded-equivalence step relies on that).
"""

import io
import threading

import numpy as np
import pytest

from repro.dataport.app import BatchingTsdbWriter
from repro.tsdb import (
    BatchBuilder,
    Downsample,
    PointBatch,
    Query,
    RetentionPolicy,
    SeriesKey,
    ShardedTSDB,
    TimeSeriesStore,
    TSDB,
    dumps,
    load,
    shard_for_key,
)

SHARD_COUNTS = (1, 2, 4, 7)

METRICS = ("air.co2.ppm", "air.no2.ugm3", "weather.temperature.c", "traffic.count.vehicles")
NODES = tuple(f"ctt-{i:02d}" for i in range(9))
CITIES = ("trondheim", "vejle")


def random_rows(seed: int, n: int = 3_000):
    """(metric, ts, value, tags) rows: clustered timestamps force
    duplicates, a late fraction forces out-of-order arrival."""
    rng = np.random.default_rng(seed)
    metrics = rng.integers(0, len(METRICS), size=n)
    nodes = rng.integers(0, len(NODES), size=n)
    cities = rng.integers(0, len(CITIES), size=n)
    ts = rng.integers(0, 5_000, size=n) * 60  # coarse grid -> duplicates
    late = rng.random(n) < 0.05
    ts[late] -= 720  # out-of-order retransmits
    values = rng.normal(400.0, 25.0, size=n)
    return [
        (
            METRICS[int(m)],
            int(t),
            float(v),
            {"node": NODES[int(nd)], "city": CITIES[int(c)]},
        )
        for m, t, v, nd, c in zip(metrics, ts, values, nodes, cities)
    ]


def ingest_mixed(db: TimeSeriesStore, rows) -> None:
    """Feed one stream through all ingest APIs: per-point puts, columnar
    batches, and put_series, in the same order for every store."""
    third = len(rows) // 3
    for metric, ts, value, tags in rows[:third]:
        db.put(metric, ts, value, tags)
    builder = BatchBuilder()
    for metric, ts, value, tags in rows[third : 2 * third]:
        builder.add(metric, ts, value, tags)
    db.put_batch(builder.build())
    for metric, ts, value, tags in rows[2 * third :]:
        db.put_series(metric, [ts], [value], tags)


def build_pair(n: int, seed: int = 2018, rows=None) -> tuple[TSDB, ShardedTSDB]:
    rows = rows if rows is not None else random_rows(seed)
    single, sharded = TSDB(), ShardedTSDB(n)
    ingest_mixed(single, rows)
    ingest_mixed(sharded, rows)
    return single, sharded


def assert_results_identical(a, b):
    """Two QueryResults are byte-identical (timestamps, values, grouping)."""
    assert len(a) == len(b)
    assert a.scanned_points == b.scanned_points
    for ra, rb in zip(a, b):
        assert ra.metric == rb.metric
        assert dict(ra.group_tags) == dict(rb.group_tags)
        assert ra.source_series == rb.source_series
        assert np.array_equal(ra.timestamps, rb.timestamps)
        assert np.array_equal(ra.values, rb.values, equal_nan=True)


QUERIES = [
    Query("air.co2.ppm", 0, 400_000),
    Query("air.co2.ppm", 50_000, 200_000, tags={"city": "trondheim"}),
    Query("air.no2.ugm3", 0, 400_000, tags={"node": "*"}, aggregator="sum"),
    Query("air.no2.ugm3", 0, 400_000, tags={"node": "ctt-01|ctt-04"}, aggregator="max"),
    Query("weather.temperature.c", 0, 400_000, group_by=["node"]),
    Query("air.co2.ppm", 0, 400_000, group_by=["city", "node"], aggregator="min"),
    Query("air.co2.ppm", 0, 400_000, downsample="5m-avg"),
    Query("weather.temperature.c", 0, 400_000, downsample="1h-max", group_by=["city"]),
    Query("traffic.count.vehicles", 0, 400_000, rate=True),
    Query("no.such.metric", 0, 400_000),
]


@pytest.mark.parametrize("n", SHARD_COUNTS)
class TestEquivalence:
    def test_snapshot_byte_identical(self, n):
        single, sharded = build_pair(n)
        assert dumps(sharded) == dumps(single)

    def test_counts_and_catalog(self, n):
        single, sharded = build_pair(n)
        assert sharded.series_count == single.series_count
        assert sharded.exact_point_count() == single.exact_point_count()
        assert sharded.write_count == single.write_count
        assert sharded.metrics() == single.metrics()
        for metric in single.metrics():
            assert sharded.series_for_metric(metric) == single.series_for_metric(metric)
            assert sharded.suggest_tag_values(metric, "node") == (
                single.suggest_tag_values(metric, "node")
            )
        assert sharded.suggest_metrics("air.") == single.suggest_metrics("air.")

    def test_queries_identical(self, n):
        single, sharded = build_pair(n)
        for query in QUERIES:
            assert_results_identical(single.run(query), sharded.run(query))

    def test_last_identical(self, n):
        single, sharded = build_pair(n)
        for metric in METRICS:
            assert sharded.last(metric) == single.last(metric)
            assert sharded.last(metric, {"city": "vejle"}) == (
                single.last(metric, {"city": "vejle"})
            )
            # dict == ignores order; the dashboards iterate it.
            assert list(sharded.last(metric)) == list(single.last(metric))

    def test_delete_before_identical(self, n):
        single, sharded = build_pair(n)
        for cutoff in (60_000, 150_000, 10**9):  # last one empties both
            assert sharded.delete_before(cutoff) == single.delete_before(cutoff)
            assert dumps(sharded) == dumps(single)
            # Index pruning matches too: dead series leave no metric behind.
            assert sharded.metrics() == single.metrics()
        assert sharded.metrics() == []

    def test_retention_policy_identical(self, n):
        single, sharded = build_pair(n)
        policy = RetentionPolicy(raw_max_age=100_000, rollup=Downsample.parse("1h-avg"))
        ra = policy.enforce(single, now=250_000)
        rb = policy.enforce(sharded, now=250_000)
        assert (ra.dropped_points, ra.rolled_points, ra.cutoff) == (
            rb.dropped_points,
            rb.rolled_points,
            rb.cutoff,
        )
        assert dumps(sharded) == dumps(single)

    def test_query_convenience_wrappers(self, n):
        single, sharded = build_pair(n)
        a, b = (
            db.select("air.co2.ppm").where(city="vejle").range(0, 400_000).run()
            for db in (single, sharded)
        )
        assert_results_identical(a, b)
        ra, rb = (
            db.select("air.co2.ppm").range(0, 400_000).downsample("5m-avg")
            .run().single()
            for db in (single, sharded)
        )
        assert np.array_equal(ra.timestamps, rb.timestamps)
        assert np.array_equal(ra.values, rb.values, equal_nan=True)


class TestRouting:
    def test_every_series_lands_on_its_hash_shard(self):
        _, sharded = build_pair(4)
        seen = 0
        for i, shard in enumerate(sharded.shards):
            for metric in shard.metrics():
                for key in shard.series_for_metric(metric):
                    assert shard_for_key(key, 4) == i
                    seen += 1
        assert seen == sharded.series_count

    def test_routing_is_instance_independent(self):
        a, b = ShardedTSDB(7), ShardedTSDB(7)
        key = a.put("m.x", 1, 1.0, {"node": "n1"})
        assert b.shard_of(key) == a.shard_of(key) == shard_for_key(key, 7)
        assert a.shard_for("m.x", {"node": "n1"}) == a.shard_of(key)

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            ShardedTSDB(0)
        with pytest.raises(ValueError):
            key = SeriesKey.make("m")
            shard_for_key(key, 0)


class TestInterface:
    def test_both_stores_satisfy_protocol(self):
        assert isinstance(TSDB(), TimeSeriesStore)
        assert isinstance(ShardedTSDB(2), TimeSeriesStore)

    def test_batching_writer_drop_in(self):
        """The dataport's hop-5 writer works unchanged on a sharded store."""
        db = ShardedTSDB(4)
        writer = BatchingTsdbWriter(db, max_pending=64)
        for metric, ts, value, tags in random_rows(11, n=200):
            writer.add(metric, ts, value, tags)
        writer.flush()
        assert writer.written == 200
        assert db.write_count == 200
        single = TSDB()
        w2 = BatchingTsdbWriter(single, max_pending=64)
        for metric, ts, value, tags in random_rows(11, n=200):
            w2.add(metric, ts, value, tags)
        w2.flush()
        assert dumps(db) == dumps(single)

    def test_load_into_sharded(self, tmp_path):
        single, sharded = build_pair(3)
        path = tmp_path / "snap.log"
        from repro.tsdb import snapshot

        snapshot(single, path)
        restored = load(path, into=ShardedTSDB(3))
        assert dumps(restored) == dumps(sharded)


class TestPerShardPersistence:
    def test_snapshot_restore_round_trip(self, tmp_path):
        _, sharded = build_pair(4)
        total = sharded.snapshot_to_dir(tmp_path / "snap")
        assert total == sharded.exact_point_count()
        restored = ShardedTSDB.restore_from_dir(tmp_path / "snap")
        assert restored.num_shards == 4
        assert dumps(restored) == dumps(sharded)
        for orig, back in zip(sharded.shards, restored.shards):
            assert dumps(back) == dumps(orig)

    def test_snapshot_restore_query_leave_no_thread_behind(self, tmp_path):
        """Nothing ever closes a restored store (the pager, ``repro
        serve`` and ``compact`` never call ``close()``), so none of
        these may start a thread that outlives the call."""
        _, sharded = build_pair(4)
        before = set(threading.enumerate())
        sharded.snapshot_to_dir(tmp_path / "snap")
        restored = ShardedTSDB.restore_from_dir(tmp_path / "snap")
        restored.run_many(QUERIES)
        assert set(threading.enumerate()) == before

    def test_restore_detects_misrouted_files(self, tmp_path):
        _, sharded = build_pair(4)
        snap = tmp_path / "snap"
        sharded.snapshot_to_dir(snap)
        # Swap two non-empty shard files: routing validation must fire.
        files = sorted(
            p for p in snap.iterdir() if p.stat().st_size > 40
        )
        assert len(files) >= 2, "workload should populate at least two shards"
        a, b = files[0], files[1]
        tmp = a.read_bytes()
        a.write_bytes(b.read_bytes())
        b.write_bytes(tmp)
        with pytest.raises(ValueError, match="routes to"):
            ShardedTSDB.restore_from_dir(snap)

    def test_restore_missing_shard_fails(self, tmp_path):
        _, sharded = build_pair(4)
        snap = tmp_path / "snap"
        sharded.snapshot_to_dir(snap)
        (snap / "shard-2-of-4.seg").unlink()
        with pytest.raises(ValueError, match="missing shards"):
            ShardedTSDB.restore_from_dir(snap)

    def test_restore_empty_dir_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedTSDB.restore_from_dir(tmp_path)


class TestShardLocality:
    def test_put_batch_routes_columns_not_points(self):
        """A batch touching k series does k column writes, all shard-local."""
        db = ShardedTSDB(4)
        batch = PointBatch.from_points(
            []
        )
        assert db.put_batch(batch) == 0  # empty batch is a no-op
        builder = BatchBuilder()
        for i in range(100):
            builder.add("m.a", i, float(i), {"node": f"n{i % 5}"})
        db.put_batch(builder.build())
        assert db.series_count == 5
        # Each series is wholly owned by one shard.
        owners = {}
        for i, shard in enumerate(db.shards):
            for key in shard.series_for_metric("m.a"):
                assert key not in owners
                owners[key] = i
        assert len(owners) == 5


class TestPerShardRetention:
    """Distinct retention horizons per shard, applied through the write
    protocol of the store handed in — so wrapper stacks see the pass."""

    def test_distinct_horizons_per_shard(self):
        from repro.tsdb import PerShardRetention

        _, db = build_pair(3)
        now = 5_000 * 60
        horizons = (100_000, None, 250_000)
        policies = tuple(
            RetentionPolicy(raw_max_age=h) if h is not None else None
            for h in horizons
        )
        before = [sh.exact_point_count() for sh in db.shards]
        results = PerShardRetention(policies).enforce(db, now)

        assert results[1] is None
        assert db.shards[1].exact_point_count() == before[1]  # exempt shard
        for i in (0, 2):
            cutoff = now - horizons[i]
            assert results[i].cutoff == cutoff
            for _key, sl in db.shards[i].iter_series():
                assert len(sl) == 0 or int(sl.timestamps[0]) >= cutoff
            # And the per-shard pass matches the single-store primitive.
            assert results[i].dropped_points == before[i] - db.shards[
                i
            ].exact_point_count()

    def test_rollups_route_through_the_coordinator(self):
        from repro.tsdb import PerShardRetention

        _, db = build_pair(4)
        now = 5_000 * 60
        policy = RetentionPolicy(
            raw_max_age=150_000, rollup=Downsample.parse("1h-avg")
        )
        PerShardRetention((policy,) * 4).enforce(db, now)
        rollup_keys = [
            key
            for metric in db.metrics()
            if metric.endswith(".rollup")
            for key in db.series_for_metric(metric)
        ]
        assert rollup_keys
        # Every rollup series lives in the shard its key hash-routes to,
        # even when its *source* raw series lived in a different shard.
        for key in rollup_keys:
            owner = db.shard_of(key)
            assert key in db.shards[owner]._stores
            raw = SeriesKey.make(
                key.metric.removesuffix(".rollup"), key.tag_dict()
            )
            if shard_for_key(raw, 4) != owner:
                break
        else:
            pytest.fail("expected at least one rollup routed off-shard")

    def test_cross_shard_rollups_survive_other_shards_deletes(self):
        """A rollup written while enforcing shard i may hash-route to
        shard j; shard j's own delete pass (even with no rollup in its
        policy) must spare it, both within one pass and on re-runs."""
        from repro.tsdb import PerShardRetention

        _, db = build_pair(2)
        now = 5_000 * 60
        retention = PerShardRetention(
            (
                RetentionPolicy(
                    raw_max_age=100_000, rollup=Downsample.parse("1h-avg")
                ),
                RetentionPolicy(raw_max_age=100_000),  # no rollup of its own
            )
        )
        results = retention.enforce(db, now)
        assert results[0].rolled_points > 0
        rollup_keys = [
            key
            for metric in db.metrics()
            if metric.endswith(".rollup")
            for key in db.series_for_metric(metric)
        ]
        # Rolled history landed on both shards and none of it was eaten
        # by the sibling shard's plain delete.
        assert {db.shard_of(k) for k in rollup_keys} == {0, 1}
        assert sum(len(db.series_slice(k)) for k in rollup_keys) == results[
            0
        ].rolled_points
        # A second pass (nothing new to roll) must not erode them either.
        again = retention.enforce(db, now)
        assert again[0].rolled_points == 0
        assert sum(len(db.series_slice(k)) for k in rollup_keys) == results[
            0
        ].rolled_points

    def test_mixed_rollup_suffixes_rejected(self):
        from repro.tsdb import PerShardRetention

        _, db = build_pair(2)
        retention = PerShardRetention(
            (
                RetentionPolicy(
                    raw_max_age=1, rollup=Downsample.parse("1h-avg")
                ),
                RetentionPolicy(
                    raw_max_age=1,
                    rollup=Downsample.parse("1h-avg"),
                    rollup_suffix=".agg",
                ),
            )
        )
        with pytest.raises(ValueError, match="mixed rollup suffixes"):
            retention.enforce(db, 10)

    @pytest.mark.parametrize("with_rollup", (False, True))
    def test_wrapped_stack_records_the_pass(
        self, tmp_path, with_rollup
    ):
        """The pass runs on the store it is handed: over
        ``DurableStore(ReplicatedStore(ShardedTSDB))`` the journal and
        the replication log both carry every rollup and deletion, so WAL
        replay ≡ log replay ≡ the live store, and the wrappers change
        nothing about what the pass does."""
        from repro.replication import ReplicatedStore
        from repro.tsdb import DurableStore, PerShardRetention
        from repro.tsdb.segments import SEGMENT_MAGIC

        rows = random_rows(2018)
        now = 5_000 * 60
        rollup = Downsample.parse("1h-avg") if with_rollup else None
        retention = PerShardRetention(
            (
                RetentionPolicy(raw_max_age=100_000, rollup=rollup),
                None,
                RetentionPolicy(raw_max_age=250_000),
                RetentionPolicy(raw_max_age=150_000, rollup=rollup),
            )
        )
        bare = ShardedTSDB(4)
        ingest_mixed(bare, rows)
        want = retention.enforce(bare, now)

        inner = ShardedTSDB(4)
        replicated = ReplicatedStore(inner)
        store = DurableStore(replicated, tmp_path / "wal.seg")
        ingest_mixed(store, rows)
        before = inner.exact_point_count()
        got = retention.enforce(store, now)
        store.close()

        assert got == want  # per-shard RolledUp counts, wrapped ≡ bare
        assert got[1] is None and got[0].dropped_points > 0
        if with_rollup:
            assert got[0].rolled_points > 0
        assert inner.exact_point_count() < before
        state = dumps(inner, format="binary")
        assert state == dumps(bare, format="binary")
        assert dumps(load(store.wal_path), format="binary") == state
        frames = b"".join(f for _, f in replicated.log.pending_after(0))
        assert (
            dumps(load(io.BytesIO(SEGMENT_MAGIC + frames)), format="binary")
            == state
        )
