"""Golden equivalence suite for the v2 query engine.

The query API was redesigned (batched ``run_many``) but *not*
changed: every redesigned surface must return byte-identical results
to the seed query path — ``execute_plan`` over per-query match +
direct scans, as the seed ``TSDB.run`` did — and to the frozen seed
executor itself.  This suite pins
that equivalence on ``TSDB``, plus the semantics of the new surfaces
themselves.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.tsdb.plan
from repro.tsdb import Query, QueryError, TSDB, aggregators
from repro.tsdb.catalog import Resolution
from repro.tsdb.plan import Block, aggregate_across, execute_plan
from repro.tsdb.series import SeriesSlice, SeriesStore
from test_aggregators import bucket_oracle, dense_oracle
from test_query_throughput import COLUMNAR, seed_run as frozen_seed_run

#: Test ids of a retired store layout's shard counts.
SHARD_COUNTS = (1, 2, 4, 7)
METRICS = ("air.co2.ppm", "air.no2.ugm3", "weather.temperature.c",
           "traffic.count.vehicles")
NODES = tuple(f"ctt-{i:02d}" for i in range(9))
CITIES = ("trondheim", "vejle")


def seed_run(db: TSDB, query: Query):
    """The seed one-shot path: per-query match + direct scans.

    What ``TSDB.run`` did before the planner shared anything: one
    query's own match, and its own scan of each matched series over its
    own window; the batch's covering blocks and windows are measured
    against it.
    """
    matched = tuple(db._match(query.metric, query.tags))
    return execute_plan(
        query,
        Resolution(0, matched).groups(query.group_by),
        Block.scan([db._stores[key] for key in matched], query.start, query.end),
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
    """Two stores fed the same rows; the seed plan reads the first."""
    rows = random_rows(seed)
    single, other = TSDB(), TSDB()
    for metric, ts, value, tags in rows:
        single.put(metric, ts, value, tags)
        other.put(metric, ts, value, tags)
    return single, other


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
    """run (a batch of one) is a thin shim over the planner."""

    def test_single_store_run_matches_seed(self, stores):
        single, _ = stores
        for q in QUERIES:
            assert_results_identical(single.run(q), seed_run(single, q))

    def test_query_helper_matches_seed(self, stores):
        single, _ = stores
        q = QUERIES[1]
        res = single.run(Query(q.metric, q.start, q.end, tags=q.tags))
        assert_results_identical(res, seed_run(single, q))

    def test_query_range_matches_seed(self, stores):
        single, _ = stores
        q = QUERIES[0]
        rs = single.run(Query(q.metric, q.start, q.end)).single()
        ref = seed_run(single, q).single()
        assert np.array_equal(rs.timestamps, ref.timestamps)
        assert np.array_equal(rs.values, ref.values, equal_nan=True)


@pytest.mark.parametrize("n", SHARD_COUNTS)
class TestShardedEquivalence:
    """A second store fed the same rows == seed plan on the first."""

    def test_run_matches_seed(self, stores, n):
        single, other = stores
        for q in QUERIES:
            assert_results_identical(other.run(q), seed_run(single, q))

    def test_parallel_switch_byte_identical(self, stores, n):
        """There is no switch: one batch on the second store is, as
        bytes, the batch on the first and the seed plan per query."""
        single, other = stores
        batch = other.run_many(QUERIES)
        for q, res, one in zip(QUERIES, batch, single.run_many(QUERIES)):
            assert_results_same_bytes(res, one)
            assert_results_same_bytes(res, seed_run(single, q))

    def test_run_many_matches_sequential_runs(self, stores, n):
        _, other = stores
        batch = other.run_many(QUERIES)
        for q, res in zip(QUERIES, batch):
            assert_results_identical(res, other.run(q))

    def test_result_carries_original_query(self, stores, n):
        _, other = stores
        batch = other.run_many(QUERIES)
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


class TestExpressions:
    """Expression queries are gone: nothing but a ``Query`` is a query."""

    def test_non_query_operands_rejected(self, stores):
        """A ``Query`` is the one way to write a query: an operand of
        any other type dies, even beside a valid ``Query``, and no store
        offers a second form, expression or fluent."""
        single, _ = stores
        with pytest.raises(QueryError, match="must be Query; got str"):
            single.run_many([Query("co2", 0, 600), "co2"])
        assert not hasattr(single, "select")
        assert not {"select", "QueryBuilder", "expr", "ExprQuery"} & set(
            vars(repro.tsdb.plan))
        assert not hasattr(repro.tsdb, "ExprQuery")


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
        Query("m", 0, 100, group_by=["node"], tags={"node": "a|b"})

    @pytest.mark.parametrize("bad", [
        {"group_by": None},
        {"group_by": "node"},  # would group by the letters d, e, n, o
        {"tags": {"node": 1}},
    ], ids=["group_by-None", "group_by-str", "tags-int-value"])
    def test_malformed_group_by_and_tags(self, bad):
        with pytest.raises(QueryError):
            Query("m", 0, 100, **bad)


def _four_series() -> TSDB:
    """Four series of ``m`` over ``[0, 100 000)``: a full one, one that
    stops at 50 000, one that starts at 60 000, and another full one."""
    rng = np.random.default_rng(7)
    db = TSDB()
    for node, (lo, hi) in enumerate(
            ((0, 100_000), (0, 50_000), (60_000, 100_000), (0, 100_000))):
        ts = np.sort(rng.choice(np.arange(lo, hi), size=1_500, replace=False))
        db.put_series("m", ts, rng.normal(size=ts.shape[0]), {"node": str(node)})
    return db


class TestBlock:
    def test_a_window_block_is_each_series_direct_scan(self):
        """A filter's block over a window — scanned over it, or cut from
        a block over a covering range — is, run by run, each series'
        direct scan over the window (series empty in the window, lagging
        or absent included), and a lone series' block is its scan, not a
        copy."""
        db = _four_series()
        stores = [db._stores[key] for key in db.series_for_metric("m")]
        stores.insert(2, None)  # matched, not stored yet
        windows = [(0, 100_000), (10_000, 20_000), (55_555, 55_556),
                   (49_000, 61_000), (99_000, 100_000), (100_001, 200_000)]
        cover = Block.scan(stores, 0, 200_000)
        for lo, hi in windows:
            for got in (Block.scan(stores, lo, hi), cover.between(lo, hi)):
                assert got.bounds.shape == (len(stores) + 1,)
                for i, store in enumerate(stores):
                    a, b = got.bounds[i], got.bounds[i + 1]
                    direct = (SeriesSlice(np.empty(0, np.int64), np.empty(0))
                              if store is None else store.scan(lo, hi))
                    assert got.timestamps[a:b].tobytes() == direct.timestamps.tobytes()
                    assert got.values[a:b].tobytes() == direct.values.tobytes()
                assert not got.timestamps.flags.writeable
                assert not got.values.flags.writeable
            lone = Block.scan(stores[:1], lo, hi)
            ts, vals, _ = stores[0]._cols
            assert len(lone) == 0 or (np.shares_memory(lone.timestamps, ts)
                                      and np.shares_memory(lone.values, vals))

    def test_a_batch_scans_each_run_of_overlapping_windows_once(self, monkeypatch):
        """A filter's series are scanned once per run of overlapping
        windows, over its union: a sliding wall's head and tail scan
        their own windows, never the range between them; nested windows
        and a full window beside its edges share one scan.  Each query
        answers as its own scans do."""
        db = _four_series()
        head = Query("m", 10_000, 11_999, downsample="1m-avg")
        head_1h = Query("m", 10_000, 14_399, downsample="1h-max")
        tail = Query("m", 95_000, 100_000, downsample="1m-avg")
        tail_dev = Query("m", 95_000, 100_000, aggregator="dev", group_by=("node",))
        full = Query("m", 10_000, 100_000, downsample="1h-max", rate=True)
        views: list[tuple[int, int]] = []
        real = SeriesStore.scan

        def scan(series, lo=None, hi=None):
            views.append((lo, hi))
            return real(series, lo, hi)

        for batch, scans in (
            ([head, head_1h, tail, tail_dev], [(10_000, 14_399), (95_000, 100_000)]),
            ([tail, head, full], [(10_000, 100_000)]),
        ):
            views.clear()
            monkeypatch.setattr(SeriesStore, "scan", scan)
            results = db.run_many(batch)
            monkeypatch.setattr(SeriesStore, "scan", real)
            assert sorted(views) == sorted(scans * 4)
            for q, res in zip(batch, results):
                assert_results_identical(res, seed_run(db, q))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    agg=st.sampled_from(("avg", "sum", "min", "max", "count", "p90", "dev")),
    downsample=st.sampled_from((None, "5m-avg", "1h-max-nan", "30m-sum-zero")),
    rate=st.booleans(),
    group_by=st.sampled_from(((), ("node",), ("city", "node"))),
)
@example(
    seed=0,
    agg='count',
    downsample=None,
    rate=True,
    group_by=('node',),
).via('discovered failure')
def test_property_pushdown_equivalence(seed, agg, downsample, rate, group_by):
    """Randomized workloads: the batched executor == seed plan, as
    bytes."""
    rows = random_rows(seed, n=400)
    single = TSDB()
    for metric, ts, value, tags in rows:
        single.put(metric, ts, value, tags)
    q = Query("air.co2.ppm", 0, 300_000, aggregator=agg,
              downsample=downsample, rate=rate, group_by=group_by)
    assert_results_same_bytes(single.run_many([q])[0], seed_run(single, q))


# ---------------------------------------------------------------------------
# Scatter aggregation == the dense columnar definition, byte for byte
# (quantiles: the stated rule, which a lone series obeys as it is)
# ---------------------------------------------------------------------------

_SPECIALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])


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


def _assert_bytes(got: SeriesSlice, all_ts, values, what):
    assert got.timestamps.tobytes() == all_ts.tobytes(), what
    assert got.values.dtype == np.float64, what
    assert got.values.tobytes() == values.tobytes(), (what, got.values, values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@settings(max_examples=200, deadline=None)
@given(slices=_slice_groups(), shared=st.booleans())
def test_property_scatter_equals_dense_columnar(slices, shared):
    """``aggregate_across`` returns the bytes of the dense oracle for
    every registered aggregator (as ``dense_oracle`` reads a one-instant
    matrix; quantiles by the stated rule, which a lone series obeys).

    This is what a fold that regroups additions fails: summing each
    instant's time-sorted points with ``np.add.reduceat`` is ``first +
    pairwise_sum(rest)`` in numpy, eight ways unrolled, and differs from
    the row-order fold in the last ulp from nine series up.
    """
    rows = [s for s in slices if len(s) > 0]
    block = Block.of(slices)  # shared: a batch's panels share one alignment
    for name in aggregators.names():
        got = aggregate_across(block if shared else Block.of(slices), name)
        if not rows:
            assert len(got) == 0
            continue
        all_ts, matrix = _dense(rows)
        _assert_bytes(got, all_ts, dense_oracle(name, matrix), name)


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
        _assert_bytes(aggregate_across(Block.of(slices), name), all_ts,
                      COLUMNAR[name](matrix), name)


def test_lone_negative_zero_folds_like_a_group():
    """avg / sum of a lone series add the fold's +0.0 (−0.0 → 0.0), as
    they do beside any sibling — so a delta scan whose siblings are
    empty agrees with the full window byte for byte."""
    lone = SeriesSlice(np.array([10, 20], np.int64), np.array([-0.0, 2.5]))
    sibling = SeriesSlice(np.array([30], np.int64), np.array([1.0]))
    empty = SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
    for name in ("avg", "sum"):
        alone = aggregate_across(Block.of([lone, empty]), name)
        beside = aggregate_across(Block.of([lone, sibling]), name)
        assert alone.values.tobytes() == np.array([0.0, 2.5]).tobytes()
        assert alone.values.tobytes() == beside.values[:2].tobytes()
    for name in ("min", "max", "first", "last", "median", "p95"):
        alone = aggregate_across(Block.of([lone, empty]), name)
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
    """Every aggregator ≡ the dense oracle as bytes on
    NaN-free, all-NaN-column and mixed cells — through the branch the
    data picks, and, where nothing is NaN, through the masking branch
    too (the one a NaN anywhere else in the window would pick)."""
    from repro.tsdb.plan import align

    nans, slices = layout
    _, matrix = _dense(slices)
    block = Block.of(slices)
    _, aligned = align(block.timestamps, block.values)
    has_nan = bool(np.isnan(np.concatenate([s.values for s in slices])).any())
    assert (aligned.finite is None) == (not has_nan)  # no mask without a NaN
    assert has_nan == {"none": False, "column": True}.get(nans, has_nan)
    # what align hands over is each column's cells, counted
    counted = np.bincount(aligned.col, minlength=aligned.n)
    assert aligned.sizes.tobytes() == counted.astype(np.float64).tobytes()
    masking = aggregators.Cells(aligned.col, aligned.values, aligned.sizes)
    masking.finite = ~np.isnan(masking.values)  # force the masks, whatever the data
    for name in aggregators.names():
        want = dense_oracle(name, matrix)
        for what, cells in (("aligned", aligned), ("masking", masking)):
            got = aggregators.lookup(name).reduce(cells)
            assert got.dtype == np.float64, (name, what)
            assert got.tobytes() == want.tobytes(), (name, what, got, want)


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
        a = aggregate_across(Block.of(full), name).between(int(cut), None)
        b = aggregate_across(Block.of(delta), name)
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
    """Every aggregator over segments, through both branches: a NaN-free
    column reduces to the bytes the masking branch gives it (forced by a
    NaN in a segment of its own, in front), and each segment to the
    bucket oracle on its own values."""
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
        reduce = aggregators.lookup(name).reduce
        got = reduce(aggregators.Segments(values, starts))
        assert got.dtype == np.float64 and got.shape == starts.shape, name
        masked = reduce(aggregators.Segments(guarded, guarded_starts))
        assert np.isnan(masked[0]) or name == "count", name
        assert got.tobytes() == masked[1:].tobytes(), (name, got, masked)
        want = np.array([bucket_oracle(name, values[a:b]) for a, b in zip(starts, ends)])
        assert got.tobytes() == want.tobytes(), (name, got, want)


def test_unaligned_workload_equals_frozen_seed_executor():
    """Every engine ≡ the frozen seed executor of
    ``benchmarks/test_query_throughput.py`` (np.unique union + dense NaN
    matrix + one scan per query and key), as bytes, on feeds that never
    share a second (offsets 0…6 s, 1 % two minutes late)."""
    rng = np.random.default_rng(2017)
    n_series, rows = 4 * 13, 240
    series = np.tile(np.arange(n_series), rows)
    ts = np.repeat(np.arange(rows) * 60, n_series) + series % 7
    ts[rng.random(ts.shape[0]) < 0.01] -= 120
    values = rng.normal(400.0, 25.0, ts.shape[0])
    values[rng.random(ts.shape[0]) < 0.01] = np.nan
    single = TSDB()
    for s, t, v in zip(series.tolist(), ts.tolist(), values.tolist()):
        tags = {"node": NODES[s // 4 % len(NODES)] + f"-{s // 36}",
                "city": "trondheim"}
        single.put(METRICS[s % 4], t, v, tags)
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
    for run in runs:
        for res, ref in zip(run, reference):
            assert res.scanned_points == ref.scanned_points
            assert len(res) == len(ref)
            for a, b in zip(res, ref):
                assert dict(a.group_tags) == dict(b.group_tags)
                assert a.source_series == b.source_series
                assert a.timestamps.tobytes() == b.timestamps.tobytes()
                assert a.values.tobytes() == b.values.tobytes()


# ---------------------------------------------------------------------------
# The per-instant stage: a window's instants, trimmed, are any sub-window's
# ---------------------------------------------------------------------------


def _instants_store() -> TSDB:
    """Three groups over ``[5, 95]`` (30 s buckets): ``a`` three series on
    shared and offset instants, with NaN, ±0.0 and ±inf (an instant
    whose every cell is NaN included); ``b`` two series, one of which
    stops at 40, so a window trimmed past it is a lone series (its
    siblings fall away); ``c`` a lone series throughout."""
    rng = np.random.default_rng(35)
    db = TSDB()
    layout = {
        ("a", 0): np.arange(5, 96, 5),
        ("a", 1): np.arange(5, 96, 10),
        ("a", 2): np.arange(7, 96, 10),
        ("b", 0): np.arange(5, 96, 5),
        ("b", 1): np.arange(5, 41, 5),
        ("c", 0): np.arange(10, 96, 15),
    }
    for (group, i), ts in layout.items():
        values = rng.choice((-1.0, 1.0), ts.shape[0]) * 10.0 ** rng.uniform(
            -3, 8, ts.shape[0])
        values[rng.random(ts.shape[0]) < 0.3] = rng.choice(_SPECIALS)
        values[ts == 45] = np.nan  # every cell of one instant
        values[ts == 25] = -0.0
        for t, v in zip(ts.tolist(), values.tolist()):
            db.put("m", t, v, {"grp": group, "i": str(i)})
    return db


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
def test_trimmed_instants_downsample_to_the_planners_sub_window():
    """``execute_plan``'s two stages compose over any later start: for
    every aggregator × downsample aggregator (fill ``none`` and
    ``zero``, the splice-safe ones), a window's per-instant values — its
    query undownsampled — trimmed at any instant and run through
    :func:`downsampled` are the planner's downsampled answer for the
    window from that instant on, byte for byte."""
    from repro.tsdb.downsample import Downsample
    from repro.tsdb.plan import downsampled

    db = _instants_store()
    start, end = 5, 95
    # off every instant, at the -0.0 and the all-NaN instants, past where
    # group b's second series stops, on the grid, at an offset series'
    # own instant
    cuts = (6, 25, 41, 45, 60, 67, 90)
    fills = [Downsample.parse(f"30s-avg-{fill}").fill for fill in ("none", "zero")]
    for name in aggregators.names():
        held = db.run(Query("m", start, end, aggregator=name, group_by=("grp",)))
        assert [dict(s.group_tags) for s in held.series] == [
            {"grp": "a"}, {"grp": "b"}, {"grp": "c"}]
        queries = [Query("m", cut, end, aggregator=name,
                         downsample=Downsample(30, agg, fill), group_by=("grp",))
                   for agg in aggregators.names() for fill in fills for cut in cuts]
        for q, want in zip(queries, db.run_many(queries)):
            got = downsampled(q, Block.of([s.slice.between(q.start, None)
                                           for s in held.series]))
            assert len(got) == len(want.series)
            for a, b in zip(got, want.series):
                what = (name, q.downsample, q.start, dict(b.group_tags))
                assert a.timestamps.tobytes() == b.timestamps.tobytes(), what
                assert a.values.tobytes() == b.values.tobytes(), what


# ---------------------------------------------------------------------------
# The block executor ≡ the frozen seed executor, as bytes
# ---------------------------------------------------------------------------

_CITIES = ("c0", "c1", "c2")
_FILLS = ("", "-nan", "-zero", "-previous", "-linear")


@st.composite
def _block_batches(draw):
    """A store of 0–30 series under one metric — three cities, some
    series empty, short, lagging or starting late, values 1e-3…1e8 in
    both signs with NaN, ±inf and −0.0 sprinkled in — and a batch of
    1–6 queries of one filter, their windows drawn from three (so some
    are equal, some overlap and some lie apart), each with its own
    aggregator, downsample (every aggregator × fill, or none), rate and
    group-by (none, by node: lone series, by city: several series a
    group)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.sampled_from((0.0, 0.1, 0.4)))
    db = TSDB()
    for i in range(draw(st.integers(0, 30))):
        shape = draw(st.sampled_from(("full", "full", "lagging", "late",
                                      "short", "empty")))
        lo, hi = {"lagging": (0, 200), "late": (400, 600),
                  "short": (0, 600)}.get(shape, (0, 600))
        size = {"short": 1, "empty": 0}.get(shape, int(rng.integers(2, 40)))
        ts = np.sort(rng.choice(np.arange(lo, hi), size=size, replace=False))
        if shape == "empty":  # a series with points, none of them in any window
            ts = np.array([5_000], np.int64)
        values = rng.choice((-1.0, 1.0), ts.shape[0]) * 10.0 ** rng.uniform(
            -3, 8, ts.shape[0])
        odd = rng.random(ts.shape[0]) < special
        values[odd] = rng.choice(_SPECIALS, int(odd.sum()))
        db.put_series("m", ts.astype(np.int64), values,
                      {"node": f"n{i:02d}", "city": _CITIES[i % 3]})
    tags = draw(st.sampled_from(({}, {"city": "c1"}, {"city": "c0|c2"})))
    windows = [tuple(sorted(draw(st.tuples(st.integers(0, 600),
                                           st.integers(0, 600)))))
               for _ in range(3)]
    names = aggregators.names()
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        start, end = draw(st.sampled_from(windows))
        ds = draw(st.one_of(st.none(), st.builds(
            lambda w, agg, fill: f"{w}s-{agg}{fill}",
            st.sampled_from((30, 60, 120)), st.sampled_from(names),
            st.sampled_from(_FILLS))))
        queries.append(Query(
            "m", start, end, tags=tags, aggregator=draw(st.sampled_from(names)),
            downsample=ds, rate=draw(st.booleans()),
            group_by=draw(st.sampled_from(((), ("node",), ("city",))))))
    return db, queries


def _frozen_reference(db, query):
    """The frozen seed executor (``benchmarks/test_query_throughput.py``)
    with the rules the engine states beyond it: a group folds through the
    dense oracle — ``COLUMNAR``, quantiles by the stated rule — and a lone
    series passes through only where it is its own aggregate, adding
    +0.0 under ``avg`` and ``sum`` (``count`` and ``dev`` fold it as a
    group of one)."""
    from unittest import mock

    import test_query_throughput as frozen

    name_of = {COLUMNAR[name]: name for name in aggregators.names()}

    def aggregate_across(slices, agg):
        rows = [s for s in slices if len(s) > 0]
        if not rows:
            return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
        name = name_of[agg]
        if len(rows) == 1 and name not in ("count", "dev", "std"):
            (lone,) = rows
            adds_zero = name in ("avg", "mean", "sum")
            return SeriesSlice(lone.timestamps,
                               lone.values + 0.0 if adds_zero else lone.values)
        all_ts, matrix = _dense(rows)
        return SeriesSlice(all_ts, dense_oracle(name, matrix))

    with mock.patch.object(frozen, "_seed_aggregate_across", aggregate_across):
        return frozen.seed_run(db, query)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@settings(max_examples=300, deadline=None)
@given(case=_block_batches())
def test_property_block_executor_equals_frozen_seed_executor(case):
    """One batch — each filter's series laid end to end once, cut per
    window, rated, regrouped and folded on the block — is, query by
    query, the frozen seed executor's answer (one match, one scan per
    query and key, one fold and one downsample per group) as bytes,
    ``scanned_points`` included.  Caught by, among others, a window cut
    one point off at a series bound in :meth:`Block.between`, and a run
    of overlapping windows scanned short of a wider earlier window."""
    db, queries = case
    for q, got in zip(queries, db.run_many(queries)):
        want = _frozen_reference(db, q)
        assert got.scanned_points == want.scanned_points, q
        assert len(got) == len(want), q
        for a, b in zip(got, want):
            assert dict(a.group_tags) == dict(b.group_tags), q
            assert a.source_series == b.source_series, q
            assert a.timestamps.tobytes() == b.timestamps.tobytes(), q
            assert a.values.tobytes() == b.values.tobytes(), (q, a.values, b.values)
