"""Equivalence suite: shard count is semantically invisible.

For randomized workloads (out-of-order, duplicate, multi-metric/tag
points, mixed ingestion APIs), every observable of ``ShardedTSDB(n)`` —
queries, aggregation, downsampling, retention, snapshots, suggestions —
must be byte-identical to a single-store ``TSDB`` fed the same stream,
for n ∈ {1, 2, 4, 7}.  All randomness is seeded: the suite is fully
deterministic (the CI sharded-equivalence step relies on that).
"""

import threading

import numpy as np
import pytest

from repro.dataport.app import BatchingTsdbWriter
from repro.tsdb import (
    BatchBuilder,
    PointBatch,
    Query,
    SeriesKey,
    ShardedTSDB,
    TimeSeriesStore,
    TSDB,
    dumps,
    load,
    snapshot,
)
from repro.tsdb.downsample import Downsample
from repro.tsdb.retention import RetentionPolicy, Tier
from repro.tsdb.sharded import shard_for_key

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
        policy = RetentionPolicy(
            (Tier(100_000, Downsample.parse("1h-avg"), ".rollup"),)
        )
        ra = policy.enforce(single, now=250_000)
        rb = policy.enforce(sharded, now=250_000)
        assert ra == rb and ra.rolled_points > 0
        assert dumps(sharded) == dumps(single)

    def test_query_convenience_wrappers(self, n):
        single, sharded = build_pair(n)
        a, b = (
            db.run(Query("air.co2.ppm", 0, 400_000, tags={"city": "vejle"}))
            for db in (single, sharded)
        )
        assert_results_identical(a, b)
        ra, rb = (
            db.run(Query("air.co2.ppm", 0, 400_000, downsample="5m-avg")).single()
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
        path = tmp_path / "snap.seg"
        snapshot(single, path)
        restored = load(path, into=ShardedTSDB(3))
        assert dumps(restored) == dumps(sharded)


def _catalog_answers(db) -> dict:
    """Every catalog question, asked of one store."""
    return {
        metric: (
            db.series_for_metric(metric),
            db.cardinality(metric),
            db.cardinality(metric, {"city": "vejle"}),
            {
                key: db.tag_values(metric, key)
                for key in db.catalog.tag_keys(metric)
            },
        )
        for metric in db.metrics()
    }


@pytest.mark.parametrize("m", SHARD_COUNTS)
@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_snapshot_restores_into_any_shard_count(tmp_path, n, m):
    """One snapshot file, written from any shard count, restores into
    any other: the same bytes, the same catalog, every series on its
    hash shard — and nothing on the way leaves a thread behind
    (``repro serve`` and ``compact`` never close a restored store)."""
    _, sharded = build_pair(n)
    path = tmp_path / "snap.seg"
    before = set(threading.enumerate())
    assert snapshot(sharded, path) == sharded.exact_point_count()
    restored = load(path, into=ShardedTSDB(m))
    restored.run_many(QUERIES)
    assert set(threading.enumerate()) == before
    assert dumps(restored) == dumps(sharded)
    assert _catalog_answers(restored) == _catalog_answers(sharded)
    for i, shard in enumerate(restored.shards):
        for key, _ in shard.iter_series():
            assert shard_for_key(key, m) == i


class TestPerShardPersistence:
    def test_snapshot_restore_round_trip(self, tmp_path):
        _, sharded = build_pair(4)
        path = tmp_path / "snap.seg"
        total = snapshot(sharded, path)
        assert total == sharded.exact_point_count()
        restored = load(path, into=ShardedTSDB(4))
        assert restored.num_shards == 4
        assert dumps(restored) == dumps(sharded)
        for orig, back in zip(sharded.shards, restored.shards):
            assert dumps(back) == dumps(orig)

    def test_snapshot_restore_query_leave_no_thread_behind(self, tmp_path):
        """Nothing ever closes a restored store (``repro serve`` and
        ``compact`` never call ``close()``), so none of
        these may start a thread that outlives the call."""
        _, sharded = build_pair(4)
        before = set(threading.enumerate())
        snapshot(sharded, tmp_path / "snap.seg")
        restored = load(tmp_path / "snap.seg", into=ShardedTSDB(4))
        restored.run_many(QUERIES)
        assert set(threading.enumerate()) == before


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

