"""One store, whatever it was built under: ``TSDB`` end to end.

For randomized workloads (out-of-order, duplicate, multi-metric/tag
points, mixed ingestion APIs), every observable of a ``TSDB`` —
queries, aggregation, downsampling, retention, snapshots, suggestions —
is byte-identical to a second ``TSDB`` fed the same stream; a snapshot
restores into a fresh store with the same bytes, catalog answers and
series columns, and leaves no thread behind; a batch touching k series
does k column writes; and under the cardinality guard a store reloaded
from its snapshot at any point is the store that never reloaded.  The
module, its classes and its ``n`` / ``m`` parameters keep the names of
a retired partitioned layout: every one builds a ``TSDB``.  All
randomness is seeded and the hypothesis property is derandomized: the
suite is fully deterministic.
"""

import io
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataport.app import BatchingTsdbWriter
from repro.tsdb import (
    BatchBuilder,
    PointBatch,
    Query,
    SeriesKey,
    TimeSeriesStore,
    TSDB,
    dumps,
    load,
    snapshot,
)
from repro.tsdb.catalog import CardinalityLimitError
from repro.tsdb.downsample import Downsample
from repro.tsdb.retention import RetentionPolicy, Tier
from repro.tsdb.series import SeriesStore

#: Test ids of the retired layout's shard counts.
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


def build_pair(n: int, seed: int = 2018, rows=None) -> tuple[TSDB, TSDB]:
    """Two stores fed the same stream (``n`` is an id, not a size)."""
    rows = rows if rows is not None else random_rows(seed)
    single, sharded = TSDB(), TSDB()
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
        assert sharded.point_count == single.point_count
        assert sharded.write_count == single.write_count
        assert sharded.metrics() == single.metrics()
        for metric in single.metrics():
            assert sharded.series_for_metric(metric) == single.series_for_metric(metric)
            assert sharded.tag_values(metric, "node") == (
                single.tag_values(metric, "node")
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


def series_columns(db) -> dict:
    """Every live series of a store: key -> the bytes of its two columns."""
    columns = {}
    for metric in db.metrics():
        for key in db.series_for_metric(metric):
            scan = db._series(key).scan()
            columns[key] = (scan.timestamps.tobytes(), scan.values.tobytes())
    return columns


class TestInterface:
    def test_both_stores_satisfy_protocol(self):
        assert isinstance(TSDB(), TimeSeriesStore)

    def test_batching_writer_drop_in(self):
        """The dataport's hop-5 writer writes every row it was given,
        and two writers fed the same rows build the same store."""
        db = TSDB()
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
        restored = load(path, into=TSDB())
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
    """One snapshot file restores into a fresh store: the same bytes,
    the same catalog, every series' columns — and nothing on the way
    leaves a thread behind (``repro serve`` and ``compact`` never close
    a restored store)."""
    _, sharded = build_pair(n)
    path = tmp_path / "snap.seg"
    before = set(threading.enumerate())
    assert snapshot(sharded, path) == sharded.point_count
    restored = load(path, into=TSDB())
    restored.run_many(QUERIES)
    assert set(threading.enumerate()) == before
    assert dumps(restored) == dumps(sharded)
    assert _catalog_answers(restored) == _catalog_answers(sharded)
    assert series_columns(restored) == series_columns(sharded)


class TestPerShardPersistence:
    def test_snapshot_restore_round_trip(self, tmp_path):
        _, sharded = build_pair(4)
        path = tmp_path / "snap.seg"
        total = snapshot(sharded, path)
        assert total == sharded.point_count
        restored = load(path, into=TSDB())
        assert dumps(restored) == dumps(sharded)
        assert series_columns(restored) == series_columns(sharded)

    def test_snapshot_restore_query_leave_no_thread_behind(self, tmp_path):
        """Nothing ever closes a restored store (``repro serve`` and
        ``compact`` never call ``close()``), so none of
        these may start a thread that outlives the call."""
        _, sharded = build_pair(4)
        before = set(threading.enumerate())
        snapshot(sharded, tmp_path / "snap.seg")
        restored = load(tmp_path / "snap.seg", into=TSDB())
        restored.run_many(QUERIES)
        assert set(threading.enumerate()) == before


class TestShardLocality:
    def test_put_batch_routes_columns_not_points(self, monkeypatch):
        """A batch touching k series does k column writes."""
        db = TSDB()
        batch = PointBatch.from_points(
            []
        )
        assert db.put_batch(batch) == 0  # empty batch is a no-op
        writes = []
        real = SeriesStore.extend_batch

        def counted(store, timestamps, values):
            writes.append(len(timestamps))
            return real(store, timestamps, values)

        monkeypatch.setattr(SeriesStore, "extend_batch", counted)
        builder = BatchBuilder()
        for i in range(100):
            builder.add("m.a", i, float(i), {"node": f"n{i % 5}"})
        db.put_batch(builder.build())
        assert db.series_count == 5
        assert writes == [20] * 5



# ---------------------------------------------------------------------------
# The cardinality guard and the counters under a random op stream
# ---------------------------------------------------------------------------

_GUARD_METRICS = ("m.a", "m.b", "m.a.rollup")
_GUARD_TAGS = st.fixed_dictionaries(
    {"node": st.sampled_from(("n0", "n1", "n2", "n3", "n4"))},
    optional={"city": st.sampled_from(("x", "y", "z"))},
)
_GUARD_ROWS = st.tuples(
    st.sampled_from(_GUARD_METRICS),
    st.integers(0, 40).map(lambda t: t * 10),
    st.floats(-5.0, 5.0, allow_nan=False),
    _GUARD_TAGS,
)
_GUARD_OPS = st.one_of(
    st.tuples(st.just("put"), _GUARD_ROWS),
    st.tuples(st.just("put_batch"), st.lists(_GUARD_ROWS, max_size=12)),
    st.tuples(
        st.just("delete_before"),
        st.integers(0, 45).map(lambda t: t * 10),
        st.sampled_from((None, ".rollup")),
    ),
    st.tuples(  # one of the metric's series, picked by index
        st.just("delete_series_before"),
        st.sampled_from(_GUARD_METRICS),
        st.integers(0, 8),
        st.integers(0, 45).map(lambda t: t * 10),
    ),
    st.tuples(st.just("reload")),
)


def _apply(db, op):
    """One write or retention op on one store: its return value, or the
    text of the guard error it raised."""
    kind = op[0]
    try:
        if kind == "put":
            metric, ts, value, tags = op[1]
            return db.put(metric, ts, value, tags)
        if kind == "put_batch":
            builder = BatchBuilder()
            for metric, ts, value, tags in op[1]:
                builder.add(metric, ts, value, tags)
            return db.put_batch(builder.build())
        if kind == "delete_before":
            return db.delete_before(op[1], exclude_suffix=op[2])
        metric, pick, cutoff = op[1:]
        keys = db.series_for_metric(metric) or [SeriesKey.make(metric, {})]
        return db.delete_series_before(keys[pick % len(keys)], cutoff)
    except CardinalityLimitError as exc:
        return ("refused", str(exc))


def _observables(db) -> dict:
    """What a reader can ask a store of its contents: its catalog's
    answers, its series and point counts, and its snapshot bytes."""
    return {
        "catalog": _catalog_answers(db),
        "counts": (db.series_count, db.point_count),
        "dumps": dumps(db),
    }


@pytest.mark.parametrize("n", SHARD_COUNTS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(limit=st.sampled_from((1, 2, 3)), ops=st.lists(_GUARD_OPS, max_size=25))
def test_the_guard_and_counters_are_the_single_stores(n, limit, ops):
    """With the guard armed (``max_tag_values=k``), a store reloaded
    from its snapshot at every ``reload`` op against one that never
    reloads, under the same writes and retention: the same writes
    accepted, a refused write refused with the same text, and after
    every op the same catalog answers, series and point counts, and
    snapshot bytes.  A reload rebuilds the store from its points, so it
    does not keep the generations or the write counter, and they are
    not compared.  ``derandomize`` keeps the suite deterministic."""
    kept = TSDB(max_tag_values=limit)
    reloaded = TSDB(max_tag_values=limit)
    for op in ops:
        if op[0] == "reload":
            reloaded = load(
                io.BytesIO(dumps(reloaded)), into=TSDB(max_tag_values=limit)
            )
        else:
            assert _apply(reloaded, op) == _apply(kept, op)
        assert _observables(reloaded) == _observables(kept)
