"""Golden equivalence suite for the v2 query engine.

The query API was redesigned (builder, batched ``run_many``,
expression queries) but *not* changed: every redesigned surface must
return byte-identical results to the seed query path —
``execute_query`` over per-query match + direct scans, exactly what the
seed ``TSDB.run`` did.  This suite pins that equivalence on single and
sharded stores for n ∈ {1, 2, 4, 7}, plus the semantics of the new
surfaces themselves.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tsdb import (
    ExprQuery,
    Query,
    QueryError,
    ShardedTSDB,
    TSDB,
    aggregators,
    execute_query,
    expr,
    select,
)
from repro.tsdb.plan import ScanPlan, aggregate_across
from repro.tsdb.series import SeriesSlice

SHARD_COUNTS = (1, 2, 4, 7)
METRICS = ("air.co2.ppm", "air.no2.ugm3", "weather.temperature.c",
           "traffic.count.vehicles")
NODES = tuple(f"ctt-{i:02d}" for i in range(9))
CITIES = ("trondheim", "vejle")


def seed_run(db: TSDB, query: Query):
    """The seed one-shot path: per-query match + direct scans.

    This is exactly what ``TSDB.run`` did before the planner existed;
    everything new is measured against it.
    """
    matched = db._match(query.metric, query.tags)
    return execute_query(
        query,
        matched,
        lambda key: db._stores[key].scan(query.start, query.end),
    )


def random_rows(seed: int, n: int = 3_000):
    rng = np.random.default_rng(seed)
    metrics = rng.integers(0, len(METRICS), size=n)
    nodes = rng.integers(0, len(NODES), size=n)
    cities = rng.integers(0, len(CITIES), size=n)
    ts = rng.integers(0, 5_000, size=n) * 60
    late = rng.random(n) < 0.05
    ts[late] -= 720
    values = rng.normal(400.0, 25.0, size=n)
    # A sprinkle of NaNs exercises the aggregators' masking paths.
    values[rng.random(n) < 0.01] = np.nan
    return [
        (METRICS[int(m)], int(t), float(v),
         {"node": NODES[int(nd)], "city": CITIES[int(c)]})
        for m, t, v, nd, c in zip(metrics, ts, values, nodes, cities)
    ]


def build_stores(seed: int = 2026):
    rows = random_rows(seed)
    single = TSDB()
    shardeds = [ShardedTSDB(n) for n in SHARD_COUNTS]
    for metric, ts, value, tags in rows:
        single.put(metric, ts, value, tags)
        for sh in shardeds:
            sh.put(metric, ts, value, tags)
    return single, shardeds


@pytest.fixture(scope="module")
def stores():
    return build_stores()


def assert_results_identical(a, b):
    assert len(a) == len(b)
    assert a.scanned_points == b.scanned_points
    for ra, rb in zip(a, b):
        assert ra.metric == rb.metric
        assert dict(ra.group_tags) == dict(rb.group_tags)
        assert ra.source_series == rb.source_series
        assert np.array_equal(ra.timestamps, rb.timestamps)
        assert np.array_equal(ra.values, rb.values, equal_nan=True)


def assert_results_same_bytes(a, b):
    """``assert_results_identical``, down to the sign of zero and the
    NaN payload."""
    assert_results_identical(a, b)
    for ra, rb in zip(a, b):
        assert ra.timestamps.tobytes() == rb.timestamps.tobytes()
        assert ra.values.tobytes() == rb.values.tobytes()


#: Query mix covering every plan shape: plain merges, wildcard and
#: alternation filters, shard-spanning min/max/count groups, float folds
#: and order statistics (avg/sum/dev/p95), group-by down to
#: single-series (hence single-shard) groups, rate, downsampling with
#: fill policies, and an unmatched metric.
QUERIES = [
    Query("air.co2.ppm", 0, 400_000),
    Query("air.co2.ppm", 50_000, 200_000, tags={"city": "trondheim"}),
    Query("air.no2.ugm3", 0, 400_000, tags={"node": "*"}, aggregator="sum"),
    Query("air.no2.ugm3", 0, 400_000, tags={"node": "ctt-01|ctt-04"},
          aggregator="max"),
    Query("air.co2.ppm", 0, 400_000, aggregator="min"),
    Query("air.co2.ppm", 0, 400_000, aggregator="count"),
    Query("air.co2.ppm", 0, 400_000, aggregator="max", downsample="1h-max"),
    Query("weather.temperature.c", 0, 400_000, aggregator="dev"),
    Query("weather.temperature.c", 0, 400_000, aggregator="p95",
          downsample="5m-avg"),
    Query("weather.temperature.c", 0, 400_000, group_by=["node"]),
    Query("air.co2.ppm", 0, 400_000, group_by=["city", "node"],
          aggregator="min"),
    Query("air.co2.ppm", 0, 400_000, downsample="5m-avg-nan"),
    Query("weather.temperature.c", 0, 400_000, downsample="1h-max",
          group_by=["city"]),
    Query("traffic.count.vehicles", 0, 400_000, rate=True),
    Query("traffic.count.vehicles", 0, 400_000, rate=True,
          aggregator="count", downsample="1h-sum-zero"),
    Query("no.such.metric", 0, 400_000),
]


class TestShimEquivalence:
    """run / the bound builder are thin shims over the planner."""

    def test_single_store_run_matches_seed(self, stores):
        single, _ = stores
        for q in QUERIES:
            assert_results_identical(single.run(q), seed_run(single, q))

    def test_query_helper_matches_seed(self, stores):
        single, _ = stores
        q = QUERIES[1]
        res = single.select(q.metric).where(q.tags).range(q.start, q.end).run()
        assert_results_identical(res, seed_run(single, q))

    def test_query_range_matches_seed(self, stores):
        single, _ = stores
        q = QUERIES[0]
        rs = single.select(q.metric).range(q.start, q.end).run().single()
        ref = seed_run(single, q).single()
        assert np.array_equal(rs.timestamps, ref.timestamps)
        assert np.array_equal(rs.values, ref.values, equal_nan=True)


@pytest.mark.parametrize("n", SHARD_COUNTS)
class TestShardedEquivalence:
    """Sharded store == seed plan on the single store, any shard count."""

    def _sharded(self, stores, n):
        return stores[1][SHARD_COUNTS.index(n)]

    def test_run_matches_seed(self, stores, n):
        single, _ = stores
        sharded = self._sharded(stores, n)
        for q in QUERIES:
            assert_results_identical(sharded.run(q), seed_run(single, q))

    def test_parallel_switch_byte_identical(self, stores, n):
        """There is no switch: one batch on n shards is, as bytes, the
        batch on the single store and the seed plan per query."""
        single, _ = stores
        batch = self._sharded(stores, n).run_many(QUERIES)
        for q, res, one in zip(QUERIES, batch, single.run_many(QUERIES)):
            assert_results_same_bytes(res, one)
            assert_results_same_bytes(res, seed_run(single, q))

    def test_run_many_matches_sequential_runs(self, stores, n):
        sharded = self._sharded(stores, n)
        batch = sharded.run_many(QUERIES)
        for q, res in zip(QUERIES, batch):
            assert_results_identical(res, sharded.run(q))

    def test_result_carries_original_query(self, stores, n):
        sharded = self._sharded(stores, n)
        batch = sharded.run_many(QUERIES)
        for q, res in zip(QUERIES, batch):
            assert res.query is q


class TestRunManyBatching:
    def test_single_store_batch_matches_seed(self, stores):
        single, _ = stores
        for q, res in zip(QUERIES, single.run_many(QUERIES)):
            assert_results_identical(res, seed_run(single, q))

    def test_duplicate_queries_share_execution(self, stores):
        single, _ = stores
        q = QUERIES[0]
        dup = Query(q.metric, q.start, q.end)
        a, b = single.run_many([q, dup])
        assert a.query is q and b.query is dup
        assert a.series is b.series  # one execution, shared series

    def test_overlapping_ranges_subslice_exactly(self, stores):
        """Queries with different ranges share one covering scan; the
        sub-ranges must equal direct scans."""
        single, _ = stores
        qs = [
            Query("air.co2.ppm", 0, 400_000),
            Query("air.co2.ppm", 120_000, 130_000),
            Query("air.co2.ppm", 60_000, 300_000, downsample="5m-avg"),
        ]
        for q, res in zip(qs, single.run_many(qs)):
            assert_results_identical(res, seed_run(single, q))

    def test_empty_batch(self, stores):
        single, _ = stores
        assert single.run_many([]) == []

    def test_rejects_non_queries(self, stores):
        single, _ = stores
        with pytest.raises(QueryError):
            single.run_many(["air.co2.ppm"])


class TestBuilder:
    def test_builder_builds_equivalent_query(self):
        q = (
            select("air.co2.ppm")
            .where(city="trondheim", node="*")
            .range(0, 3600)
            .downsample("5m-avg")
            .rate()
            .group_by("node")
            .build()
        )
        assert q == Query(
            "air.co2.ppm", 0, 3600,
            tags={"city": "trondheim", "node": "*"},
            downsample="5m-avg", rate=True, group_by=("node",),
        )

    def test_builder_is_immutable_and_forkable(self):
        base = select("air.co2.ppm").range(0, 100)
        a = base.where(node="a")
        b = base.where(node="b").aggregate("max")
        assert base.build().tags == {}
        assert a.build().tags == {"node": "a"}
        assert b.build().aggregator == "max"

    def test_bound_builder_runs_through_planner(self, stores):
        single, _ = stores
        q = Query("air.co2.ppm", 0, 400_000, tags={"city": "vejle"})
        res = (
            single.select("air.co2.ppm").where(city="vejle")
            .range(0, 400_000).run()
        )
        assert_results_identical(res, seed_run(single, q))

    def test_sharded_builder_identical_to_single(self, stores):
        single, shardeds = stores
        for sharded in shardeds:
            res = (
                sharded.select("weather.temperature.c").where(node="ctt-03")
                .range(0, 400_000).downsample("15m-avg").run()
            )
            ref = (
                single.select("weather.temperature.c").where(node="ctt-03")
                .range(0, 400_000).downsample("15m-avg").run()
            )
            assert_results_identical(res, ref)

    def test_unbound_builder_requires_store(self):
        with pytest.raises(QueryError):
            select("m").range(0, 1).run()

    def test_builder_missing_range(self):
        with pytest.raises(QueryError):
            select("m").build()

    def test_builders_accepted_by_run_many(self, stores):
        single, _ = stores
        b = select("air.co2.ppm").range(0, 400_000)
        q = Query("air.co2.ppm", 0, 400_000)
        a, ref = single.run_many([b, q])
        assert a.series is ref.series


class TestFailFast:
    """Malformed queries die at construction, not mid-execution."""

    def test_empty_metric(self):
        with pytest.raises(QueryError):
            Query("", 0, 100)

    def test_non_string_metric(self):
        with pytest.raises(QueryError):
            Query(None, 0, 100)

    def test_unknown_aggregator(self):
        with pytest.raises(QueryError):
            Query("m", 0, 100, aggregator="nope")

    def test_malformed_downsample(self):
        with pytest.raises(QueryError):
            Query("m", 0, 100, downsample="5x-avg")

    def test_end_before_start(self):
        with pytest.raises(QueryError):
            Query("m", 100, 50)

    def test_valid_query_still_constructs(self):
        Query("m", 0, 100, aggregator="p95", downsample="5m-avg-linear")


class TestExpressions:
    @pytest.fixture()
    def db(self):
        db = TSDB()
        for i in range(10):
            db.put("co2", i * 60, 400.0 + i, {"node": "a"})
            db.put("co2", i * 60, 500.0 + i, {"node": "b"})
        return db

    def test_difference(self, db):
        e = expr(
            "a - b",
            a=Query("co2", 0, 600, tags={"node": "a"}),
            b=Query("co2", 0, 600, tags={"node": "b"}),
        )
        res = db.run_many([e])[0]
        assert np.allclose(res.single().values, -100.0)
        assert res.single().metric == "a - b"

    def test_constants_and_precedence(self, db):
        e = expr("2 * a + 1", a=Query("co2", 0, 0, tags={"node": "a"}))
        res = db.run_many([e])[0]
        assert res.single().values.tolist() == [801.0]

    def test_grouped_broadcast(self, db):
        """Per-node CO2 minus the all-node baseline: the grouped operand
        sets the labels, the ungrouped one broadcasts."""
        e = expr(
            "node - baseline",
            node=Query("co2", 0, 600, group_by=("node",)),
            baseline=Query("co2", 0, 600),
        )
        res = db.run_many([e])[0]
        by_node = {s.group_tags["node"]: s for s in res}
        assert set(by_node) == {"a", "b"}
        assert np.allclose(by_node["a"].values, -50.0)
        assert np.allclose(by_node["b"].values, 50.0)

    def test_missing_instants_are_nan(self, db):
        db.put("co2", 2_000, 1.0, {"node": "a"})  # only node a has t=2000
        e = expr(
            "a - b",
            a=Query("co2", 0, 2_000, tags={"node": "a"}),
            b=Query("co2", 0, 2_000, tags={"node": "b"}),
        )
        res = db.run_many([e])[0].single()
        assert np.isnan(res.values[-1])

    def test_mismatched_group_labels_rejected(self, db):
        db.put("co2", 0, 1.0, {"node": "c"})
        e = expr(
            "a - b",
            a=Query("co2", 0, 600, group_by=("node",)),
            b=Query("co2", 0, 600, tags={"node": "a|b"}, group_by=("node",)),
        )
        with pytest.raises(QueryError):
            db.run_many([e])

    def test_operand_sharing_with_sibling_panels(self, db):
        """An expression operand equal to a sibling query executes once."""
        q = Query("co2", 0, 600, tags={"node": "a"})
        e = expr(
            "a * 1",
            a=Query("co2", 0, 600, tags={"node": "a"}),
        )
        qres, eres = db.run_many([q, e])
        assert np.array_equal(qres.single().values, eres.single().values)

    def test_unbound_name_rejected(self):
        with pytest.raises(QueryError):
            expr("a - b", a=Query("m", 0, 1))

    def test_unused_operand_rejected(self):
        with pytest.raises(QueryError):
            expr("a", a=Query("m", 0, 1), b=Query("m", 0, 1))

    def test_unsafe_formulas_rejected(self):
        for bad in ("__import__('os')", "a.x", "a[0]", "f(a)", "a if a else a",
                    "lambda: 1", "a == a"):
            with pytest.raises(QueryError):
                ExprQuery(bad, (("a", Query("m", 0, 1)),))

    def test_builders_as_operands(self, db):
        e = expr(
            "hi - lo",
            hi=select("co2").range(0, 600).aggregate("max"),
            lo=select("co2").range(0, 600).aggregate("min"),
        )
        res = db.run_many([e])[0].single()
        assert np.allclose(res.values, 100.0)

    def test_sharded_expr_identical_to_single(self, db):
        sharded = ShardedTSDB(4)
        for key, sl in db.iter_series():
            sharded.put_series(key.metric, sl.timestamps, sl.values,
                               key.tag_dict())
        e = expr(
            "node - baseline",
            node=Query("co2", 0, 600, group_by=("node",)),
            baseline=Query("co2", 0, 600),
        )
        a = db.run_many([e])[0]
        b = sharded.run_many([e])[0]
        assert a.scanned_points == b.scanned_points
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.timestamps, sb.timestamps)
            assert np.array_equal(sa.values, sb.values, equal_nan=True)


class TestScanPlan:
    def test_covering_subslice_equals_direct_scan(self):
        rng = np.random.default_rng(7)
        db = TSDB()
        ts = np.sort(rng.choice(100_000, size=5_000, replace=False))
        db.put_series("m", ts, rng.normal(size=ts.shape[0]))
        (key,) = db.series_for_metric("m")
        plan = ScanPlan()
        windows = [(0, 100_000), (10_000, 20_000), (55_555, 55_556),
                   (99_000, 100_000), (100_001, 200_000)]
        for lo, hi in windows:
            plan.need(key, lo, hi)
        plan.resolve(lambda k, lo, hi: db._stores[k].scan(lo, hi))
        assert plan.touched == 1
        for lo, hi in windows:
            got = plan.slice_for(key, lo, hi)
            want = db._stores[key].scan(lo, hi)
            assert np.array_equal(got.timestamps, want.timestamps)
            assert np.array_equal(got.values, want.values)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_shards=st.sampled_from(SHARD_COUNTS),
    agg=st.sampled_from(("avg", "sum", "min", "max", "count", "p90", "dev")),
    downsample=st.sampled_from((None, "5m-avg", "1h-max-nan", "30m-sum-zero")),
    rate=st.booleans(),
    group_by=st.sampled_from(((), ("node",), ("city", "node"))),
)
@example(
    seed=0,
    n_shards=7,
    agg='count',
    downsample=None,
    rate=True,
    group_by=('node',),
).via('discovered failure')
def test_property_pushdown_equivalence(seed, n_shards, agg, downsample, rate,
                                       group_by):
    """Randomized workloads: sharded execution == single store == seed
    plan, as bytes — groups spanning shards and groups on one shard."""
    rows = random_rows(seed, n=400)
    single, sharded = TSDB(), ShardedTSDB(n_shards)
    for metric, ts, value, tags in rows:
        single.put(metric, ts, value, tags)
        sharded.put(metric, ts, value, tags)
    q = Query("air.co2.ppm", 0, 300_000, aggregator=agg,
              downsample=downsample, rate=rate, group_by=group_by)
    ref = seed_run(single, q)
    for res in (sharded.run_many([q])[0], single.run_many([q])[0]):
        assert_results_same_bytes(res, ref)


# ---------------------------------------------------------------------------
# Scatter aggregation == the dense columnar definition, byte for byte
# ---------------------------------------------------------------------------

_SPECIALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])

#: A lone series is its own median / percentile in the planner; numpy's
#: interpolation, run on a one-row matrix, makes NaN of ±inf (inf − inf)
#: and 0.0 of −0.0, so the dense form is not the reference there.
_LONE_IS_ITSELF = ("median", "p50", "p90", "p95", "p99")


@st.composite
def _slice_groups(draw):
    """1–40 series on aligned, offset, disjoint or partly overlapping
    timestamps, some cut to one point or emptied, values spanning
    1e-3…1e8 in both signs with NaN / ±0.0 / ±inf sprinkled in."""
    n = draw(st.integers(1, 40))
    layout = draw(st.sampled_from(("aligned", "offset", "disjoint", "overlap")))
    length = draw(st.integers(1, 12))
    special = draw(st.sampled_from((0.0, 0.1, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slices = []
    for i in range(n):
        if layout == "aligned":
            ts = np.arange(length) * 60
        elif layout == "offset":
            ts = np.arange(length) * 60 + i % 7
        elif layout == "disjoint":
            ts = np.arange(length) * n + i
        else:
            ts = np.flatnonzero(rng.random(3 * length) < 0.4)
        keep = draw(st.sampled_from(("all", "all", "all", "one", "none")))
        if keep == "one":
            ts = ts[-1:]
        elif keep == "none":
            ts = ts[:0]
        values = rng.choice((-1.0, 1.0), ts.shape[0]) * 10.0 ** rng.uniform(
            -3, 8, ts.shape[0])
        odd = rng.random(ts.shape[0]) < special
        values[odd] = rng.choice(_SPECIALS, int(odd.sum()))
        slices.append(SeriesSlice(ts.astype(np.int64), values))
    return slices


def _dense(slices):
    """The reference alignment: the (series, instant) NaN matrix."""
    all_ts = np.unique(np.concatenate([s.timestamps for s in slices]))
    matrix = np.full((len(slices), all_ts.shape[0]), np.nan)
    for i, s in enumerate(slices):
        matrix[i, np.searchsorted(all_ts, s.timestamps)] = s.values
    return all_ts, matrix


def _columnar(agg, matrix):
    """``agg(matrix)`` as the row-order fold it is for any matrix of two
    columns or more.  numpy reduces a lone column as a contiguous vector
    — pairwise, unrolled — so one instant of eight series or more would
    sum differently from the same instant inside a wider window; the
    planner adds row by row whatever the window holds."""
    if matrix.shape[1] == 1:
        return agg(np.hstack([matrix, matrix]))[:1]
    return agg(matrix)


def _assert_bytes(got: SeriesSlice, all_ts, values, what):
    assert got.timestamps.tobytes() == all_ts.tobytes(), what
    assert got.values.dtype == np.float64, what
    assert got.values.tobytes() == values.tobytes(), (what, got.values, values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@settings(max_examples=200, deadline=None)
@given(slices=_slice_groups(), shared=st.booleans())
def test_property_scatter_equals_dense_columnar(slices, shared):
    """``aggregate_across`` returns the bytes of
    ``get_columnar(name)(matrix)`` for every registered aggregator
    (as :func:`_columnar` reads a one-instant matrix).

    This is what a fold that regroups additions fails: summing each
    instant's time-sorted points with ``np.add.reduceat`` is ``first +
    pairwise_sum(rest)`` in numpy, eight ways unrolled, and differs from
    the row-order fold in the last ulp from nine series up.
    """
    rows = [s for s in slices if len(s) > 0]
    cache = {} if shared else None  # a batch's panels share one alignment
    for name in aggregators.names():
        agg = aggregators.get_columnar(name)
        got = aggregate_across(slices, agg, align_cache=cache)
        if not rows:
            assert len(got) == 0
            continue
        all_ts, matrix = _dense(rows)
        if len(rows) == 1 and name in _LONE_IS_ITSELF:
            _assert_bytes(got, all_ts, rows[0].values, name)
        else:
            _assert_bytes(got, all_ts, _columnar(agg, matrix), name)


def test_fold_adds_in_row_order_at_reduceat_width():
    """Forty series on one clock, magnitudes 1e-3…1e8: wide enough for
    numpy's unrolled pairwise reduce, so only a fold that adds row by
    row reproduces the dense sums."""
    rng = np.random.default_rng(14)
    ts = np.arange(500, dtype=np.int64) * 60
    slices = [SeriesSlice(ts, 10.0 ** rng.uniform(-3, 8, ts.shape[0]))
              for _ in range(40)]
    all_ts, matrix = _dense(slices)
    for name in ("avg", "sum", "dev"):
        agg = aggregators.get_columnar(name)
        _assert_bytes(aggregate_across(slices, agg), all_ts, agg(matrix), name)


def test_lone_negative_zero_folds_like_a_group():
    """avg / sum of a lone series add the fold's +0.0 (−0.0 → 0.0), as
    they do beside any sibling — so a delta scan whose siblings are
    empty agrees with the full window byte for byte."""
    lone = SeriesSlice(np.array([10, 20], np.int64), np.array([-0.0, 2.5]))
    sibling = SeriesSlice(np.array([30], np.int64), np.array([1.0]))
    empty = SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
    for name in ("avg", "sum"):
        agg = aggregators.get_columnar(name)
        alone = aggregate_across([lone, empty], agg)
        beside = aggregate_across([lone, sibling], agg)
        assert alone.values.tobytes() == np.array([0.0, 2.5]).tobytes()
        assert alone.values.tobytes() == beside.values[:2].tobytes()
    for name in ("min", "max", "first", "last", "median", "p95"):
        alone = aggregate_across([lone, empty], aggregators.get_columnar(name))
        assert alone.values.tobytes() == lone.values.tobytes()


# ---------------------------------------------------------------------------
# Masks only where something is masked: both branches ≡ the definition
# ---------------------------------------------------------------------------


@st.composite
def _nan_layouts(draw):
    """2–12 series on one clock or on offsets, values 1e-3…1e8 in both
    signs with ±0.0 / ±inf sprinkled in, and NaN laid out one of three
    ways: nowhere; in every series at one shared instant (a column that
    is all NaN); or sprinkled (which may empty a column too)."""
    n = draw(st.integers(2, 12))
    length = draw(st.integers(2, 12))
    offset = draw(st.booleans())
    nans = draw(st.sampled_from(("none", "column", "mixed")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hole = int(rng.integers(length))
    slices = []
    for i in range(n):
        ts = np.arange(length) * 60 + (i % 7 if offset else 0)
        values = rng.choice((-1.0, 1.0), length) * 10.0 ** rng.uniform(-3, 8, length)
        odd = rng.random(length) < 0.1
        values[odd] = rng.choice(_SPECIALS[1:], int(odd.sum()))
        if nans == "column":
            values[hole] = np.nan
        elif nans == "mixed":
            values[rng.random(length) < 0.3] = np.nan
        slices.append(SeriesSlice(ts.astype(np.int64), values))
    return nans, slices


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@settings(max_examples=200, deadline=None)
@given(layout=_nan_layouts())
def test_property_both_mask_branches_equal_dense_columnar(layout):
    """Every aggregator ≡ ``get_columnar(name)(matrix)`` as bytes on
    NaN-free, all-NaN-column and mixed cells — through the branch the
    data picks, and, where nothing is NaN, through the masking branch
    too (the one a NaN anywhere else in the window would pick)."""
    from repro.tsdb.plan import align

    nans, slices = layout
    _, matrix = _dense(slices)
    _, aligned = align(slices)
    has_nan = bool(np.isnan(np.concatenate([s.values for s in slices])).any())
    assert aligned.nan_free == (not has_nan)
    assert has_nan == {"none": False, "column": True}.get(nans, has_nan)
    # what align hands over is each column's cells, counted
    counted = np.bincount(aligned.col, minlength=aligned.n_cols)
    assert aligned.sizes.tobytes() == counted.astype(np.float64).tobytes()
    masking = aggregators.Cells(
        aligned.lengths, aligned.col, aligned.values, aligned.n_cols,
        aligned.sizes)
    masking.nan_free = False  # force the masks, whatever the data holds
    for name in aggregators.names():
        agg = aggregators.get_columnar(name)
        want = _columnar(agg, matrix)
        for what, cells in (("aligned", aligned), ("masking", masking)):
            got = aggregators.reduce_cells(agg, cells)
            assert got.dtype == np.float64, (name, what)
            assert got.tobytes() == want.tobytes(), (name, what, got, want)
    assert ("finite" in aligned.__dict__) == (not aligned.nan_free)
    assert "finite" in masking.__dict__


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(layout=_nan_layouts(), cut_at=st.integers(1, 11))
def test_property_delta_window_equals_full_window_across_a_nan(layout, cut_at):
    """The refresher's case: the full window holds a NaN below the cut
    (masking branch), the delta over ``[cut, end]`` holds none (NaN-free
    branch) — and every instant they share aggregates to the same bytes,
    across series and per downsample bucket."""
    _, slices = layout
    length = len(slices[0])
    # on a bucket boundary, as the refresher cuts
    cut = max(120, slices[0].timestamps[min(cut_at, length - 1)] // 120 * 120)
    full, delta = [], []
    for sl in slices:
        values = sl.values.copy()
        below = sl.timestamps < cut
        values[~below] = np.where(np.isnan(values[~below]), 1.5, values[~below])
        values[np.flatnonzero(below)[:1]] = np.nan
        whole = SeriesSlice(sl.timestamps, values)
        full.append(whole)
        delta.append(whole.between(int(cut), None))
    assert np.isnan(np.concatenate([s.values for s in full])).any()
    assert not np.isnan(np.concatenate([s.values for s in delta])).any()
    for name in aggregators.names():
        agg = aggregators.get_columnar(name)
        a = aggregate_across(full, agg).between(int(cut), None)
        b = aggregate_across(delta, agg)
        _assert_bytes(b, a.timestamps, a.values, name)
    from repro.tsdb.downsample import Downsample, apply_many

    for name in aggregators.names():
        ds = Downsample(120, name)
        whole = apply_many(full, ds, 0, None)
        tail = apply_many(delta, ds, int(cut), None)
        for a, b in zip(whole, tail):
            a = a.between(int(cut), None)
            _assert_bytes(b, a.timestamps, a.values, name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nans=st.sampled_from((0.0, 0.05, 0.5)))
def test_property_grouped_forms_equal_the_scalar_per_segment(seed, nans):
    """Every ``reduceat`` form, through both branches: a NaN-free column
    reduces to the bytes the masking branch gives it (forced by a NaN
    in a segment of its own, in front), and the exact aggregators to
    the scalar definition segment by segment."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    values = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3, 8, n)
    odd = rng.random(n) < 0.1
    values[odd] = rng.choice(_SPECIALS[1:], int(odd.sum()))
    values[rng.random(n) < nans] = np.nan
    starts = np.flatnonzero(np.r_[True, rng.random(n - 1) < 0.3])
    ends = np.r_[starts[1:], n]
    guarded, guarded_starts = np.r_[np.nan, values], np.r_[0, starts + 1]
    for name in aggregators.names():
        grouped = aggregators.grouped(name)
        if grouped is None:
            continue
        got = grouped(values, starts)
        assert got.dtype == np.float64 and got.shape == starts.shape, name
        masked = grouped(guarded, guarded_starts)
        assert np.isnan(masked[0]) or name == "count", name
        assert got.tobytes() == masked[1:].tobytes(), (name, got, masked)
        if name in ("count", "min", "max", "first", "last"):
            scalar = aggregators.get(name)
            want = np.array([scalar(values[a:b]) for a, b in zip(starts, ends)])
            assert got.tobytes() == want.tobytes(), (name, got, want)


@pytest.fixture(scope="module")
def frozen_seed_run():
    """The frozen seed executor of ``benchmarks/test_query_throughput.py``
    (np.unique union + dense NaN matrix + one scan per query and key)."""
    import sys

    bench_dir = str(Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        return importlib.import_module("test_query_throughput").seed_run
    finally:
        sys.path.remove(bench_dir)


def test_unaligned_workload_equals_frozen_seed_executor(frozen_seed_run):
    """Every engine ≡ the frozen seed executor, as bytes, on feeds that
    never share a second (offsets 0…6 s, 1 % two minutes late)."""
    rng = np.random.default_rng(2017)
    n_series, rows = 4 * 13, 240
    series = np.tile(np.arange(n_series), rows)
    ts = np.repeat(np.arange(rows) * 60, n_series) + series % 7
    ts[rng.random(ts.shape[0]) < 0.01] -= 120
    values = rng.normal(400.0, 25.0, ts.shape[0])
    values[rng.random(ts.shape[0]) < 0.01] = np.nan
    single = TSDB()
    shardeds = [ShardedTSDB(n) for n in SHARD_COUNTS]
    for s, t, v in zip(series.tolist(), ts.tolist(), values.tolist()):
        tags = {"node": NODES[s // 4 % len(NODES)] + f"-{s // 36}",
                "city": "trondheim"}
        for db in (single, *shardeds):
            db.put(METRICS[s % 4], t, v, tags)
    t_max = int(ts.max())
    city = {"city": "trondheim"}
    panels = [Query(m, 0, t_max, tags=city, aggregator=name, downsample=ds)
              for m in METRICS[:2]
              for name, ds in (("avg", "5m-avg"), ("dev", "15m-max"),
                               ("sum", None), ("min", None), ("max", "1h-max"),
                               ("count", None), ("p95", "5m-avg"),
                               ("median", None), ("first", None),
                               ("last", None))]
    panels += [Query(m, 0, t_max, tags=city, downsample="5m-avg",
                     group_by=("node",)) for m in METRICS]
    panels.append(Query(METRICS[2], 600, t_max - 600, tags=city,
                        aggregator="dev"))
    reference = [frozen_seed_run(single, q) for q in panels]
    runs = [single.run_many(panels), [single.run(q) for q in panels]]
    runs += [db.run_many(panels) for db in shardeds]
    for run in runs:
        for res, ref in zip(run, reference):
            assert res.scanned_points == ref.scanned_points
            assert len(res) == len(ref)
            for a, b in zip(res, ref):
                assert dict(a.group_tags) == dict(b.group_tags)
                assert a.source_series == b.source_series
                assert a.timestamps.tobytes() == b.timestamps.tobytes()
                assert a.values.tobytes() == b.values.tobytes()
