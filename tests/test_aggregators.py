"""The aggregation algebra against its oracle, and what it costs.

Every aggregator is written once over :class:`~repro.tsdb.aggregators.Groups`
and runs on two layouts.  The oracle is the numpy definitions the seed
aggregated with, frozen beside the seed executor
(``benchmarks/test_query_throughput.py``): :class:`Cells` are held to
the dense (series × instant) column, :class:`Segments` to the bucket's
own column, and the quantiles to the rule stated in the module
docstring of :mod:`repro.tsdb.aggregators` — numpy's ``np.median`` /
``np.percentile`` between two different neighbours, the neighbour
nearer by rank where they are equal or numpy makes NaN of them.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import CachingStore
from repro.tsdb import Query, TSDB, aggregators, wire
from repro.tsdb.aggregators import Cells, Segments
from test_query_throughput import COLUMNAR

QUANTILES = ("median", "p50", "p90", "p95", "p99")
_SPECIALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])


def rule(values: np.ndarray, name: str) -> float:
    """A quantile of one group by the stated rule, from numpy."""
    v = values[~np.isnan(values)]
    if v.size == 0:
        return np.nan
    v = v[np.lexsort((~np.signbit(v), v))]  # ascending, −0.0 before 0.0
    k = v.size
    if name == "median":
        lo, hi, t = (k - 1) // 2, k // 2, 0.5
        numpy_says = np.median(v)
    else:
        virtual = (k - 1) * (int(name[1:]) / 100)
        lo = int(np.floor(virtual))
        hi, t = min(lo + 1, k - 1), virtual - lo
        numpy_says = np.percentile(v, int(name[1:]))
    if v[lo] == v[hi] or np.isnan(numpy_says):
        return v[lo] if t < 0.5 else v[hi]
    return numpy_says


def dense_oracle(name: str, matrix: np.ndarray) -> np.ndarray:
    """What a cross-series aggregate is, column by column of the
    (series × instant) NaN matrix.

    numpy reduces a lone column as a contiguous vector (pairwise); the
    cells add row by row whatever the window holds, which is what numpy
    does from two columns up — so one column is read beside a copy."""
    if name in QUANTILES:
        return np.array([rule(matrix[:, j], name) for j in range(matrix.shape[1])])
    if matrix.shape[1] == 1:
        return COLUMNAR[name](np.hstack([matrix, matrix]))[:1]
    return COLUMNAR[name](matrix)


def _vector_sum(x: np.ndarray) -> np.float64:
    """numpy's reduce loop over one vector, as ``reduceat`` runs it per
    segment: the head, plus the pairwise sum of the tail."""
    return np.add.reduce(x[1:], initial=x[0])


def bucket_oracle(name: str, column: np.ndarray) -> float:
    """What a downsample bucket aggregates to: the frozen dense
    definition over the bucket's own column — a one-column matrix, which
    numpy reduces as a vector; the folds spell out numpy's vector sum."""
    if name in QUANTILES:
        return rule(column, name)
    if name not in ("avg", "mean", "sum", "dev", "std"):
        return COLUMNAR[name](column[:, None])[0]
    finite = ~np.isnan(column)
    k = float(finite.sum())
    if k == 0:
        return np.nan
    total = _vector_sum(np.where(finite, column, 0.0))
    if name == "sum":
        return total
    mean = total / k
    if name in ("avg", "mean"):
        return mean
    centered = np.where(finite, column - mean, 0.0)
    return np.sqrt(_vector_sum(centered * centered) / k)


# ---------------------------------------------------------------------------
# (c) Every aggregator on both layouts equals the oracle, byte for byte
# ---------------------------------------------------------------------------


@st.composite
def _matrices(draw):
    """A (series × instant) matrix, NaN where a series has no point, and
    which cells hold a point (some holding NaN): 1–12 series, 1–15
    instants, none empty; values 1e-3…1e8 in both signs with NaN / ±0.0
    / ±inf sprinkled in, or a few repeated values (ties)."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice((-1.0, 1.0), (rows, cols)) * 10.0 ** rng.uniform(
            -3, 8, (rows, cols))
    else:
        values = rng.choice((-2.5, 0.0, 1.0, 7.0), (rows, cols))
    odd = rng.random((rows, cols)) < draw(st.sampled_from((0.0, 0.1, 0.4)))
    values[odd] = rng.choice(_SPECIALS, int(odd.sum()))
    present = rng.random((rows, cols)) < draw(st.sampled_from((0.3, 0.7, 1.0)))
    present[rng.integers(rows, size=cols), np.arange(cols)] = True
    return values, present


def _layouts(values, present, *, masked: bool):
    """The same points as cells (listed row by row) and as segments
    (one per column, listed column by column) — through the branch the
    data picks, or ``masked``, through the masking branch forced."""
    rows, cols = np.nonzero(present)
    sizes = present.sum(axis=0).astype(np.float64)
    cells = Cells(cols, values[rows, cols], sizes)
    by_col = np.lexsort((rows, cols))
    starts = (np.cumsum(sizes) - sizes).astype(np.intp)
    segments = Segments(values[rows, cols][by_col], starts)
    if masked:
        for groups in (cells, segments):
            groups.finite = ~np.isnan(groups.values)
    return cells, segments


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@settings(max_examples=300, deadline=None)
@given(drawn=_matrices(), masked=st.booleans())
def test_property_every_aggregator_on_both_layouts_equals_the_oracle(drawn, masked):
    values, present = drawn
    matrix = np.where(present, values, np.nan)
    cells, segments = _layouts(values, present, masked=masked)
    if not masked:
        assert (cells.finite is None) == (not np.isnan(cells.values).any())
    for name in aggregators.names():
        reduce = aggregators.lookup(name).reduce
        got, want = reduce(cells), dense_oracle(name, matrix)
        assert got.dtype == np.float64, name
        assert got.tobytes() == want.tobytes(), (name, "cells", got, want)
        got = reduce(segments)
        want = np.array([bucket_oracle(name, matrix[present[:, j], j])
                         for j in range(matrix.shape[1])])
        assert got.tobytes() == want.tobytes(), (name, "segments", got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_get_is_the_algebra_over_one_segment():
    values = np.array([3.0, np.nan, -0.0, np.inf, 2.0])
    for name in aggregators.names():
        assert np.float64(aggregators.get(name)(values)).tobytes() == \
            np.float64(bucket_oracle(name, values)).tobytes(), name
    assert aggregators.get("sum")([]) == aggregators.get("count")([]) == 0.0
    assert np.isnan(aggregators.get("p95")([]))
    with pytest.raises(aggregators.UnknownAggregator):
        aggregators.get("p42")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_quantiles_are_numpy_away_from_equal_and_infinite_neighbours():
    rng = np.random.default_rng(25)
    for k in range(1, 40):
        column = rng.normal(400.0, 25.0, k)
        assert aggregators.get("median")(column) == np.median(column)
        for q in (50, 90, 95, 99):
            assert aggregators.get(f"p{q}")(column) == np.percentile(column, q)
    # where numpy makes NaN of inf - inf, or 0.0 of −0.0, a lone value is itself
    assert np.isnan(np.percentile([np.inf], 95))
    assert np.median([-0.0]).tobytes() == np.float64(0.0).tobytes()
    for lone in (np.inf, -np.inf, -0.0):
        for name in QUANTILES:
            assert np.float64(aggregators.get(name)([lone])).tobytes() == \
                np.float64(lone).tobytes()
    # and an infinite neighbour's NaN is the neighbour nearer by rank
    assert aggregators.get("median")([-np.inf, np.inf]) == np.inf
    assert aggregators.get("p50")([1.0, np.inf, 2.0]) == 2.0
    assert aggregators.get("p95")([1.0, np.inf]) == np.inf


# ---------------------------------------------------------------------------
# (a) The refresher's delta equals the full window, as reply bytes
# ---------------------------------------------------------------------------


def _panels(end: int) -> list[Query]:
    return [
        *(Query("m", 0, end, aggregator=name) for name in ("median", "p50", "p95")),
        Query("m", 0, end, aggregator="p95", downsample="1h-p95"),
        Query("m", 0, end, downsample="1h-p95", group_by=("node",)),
    ]


def _reply(results) -> list:
    return wire.encode_response(results)["results"]


def test_a_delta_of_one_series_is_the_full_window_for_quantiles():
    """Node ``b`` falls silent at an hour boundary; node ``a`` goes on
    reporting ±inf, ±0.0 and NaN.  Every refresh scans ``a`` alone past
    the cut (a lone series: its own quantile) while the full window
    aligns both — at the parent numpy made NaN of a lone inf there."""
    db = TSDB()
    for i in range(120):  # two hours, the last point at 7 199 s
        for node, value in (("a", 400.0 + i % 7), ("b", 380.0 + i % 5)):
            db.put("m", i * 60 + 59, value, {"node": node})
    refresher = CachingStore(db)
    end = 119 * 60 + 59
    assert _reply(refresher.run_many(_panels(end))) == _reply(db.run_many(_panels(end)))
    tail = [np.inf, -0.0, 2.5, -np.inf, 0.0, np.nan, np.inf, -0.0, np.inf, 1.5]
    for i, value in enumerate(tail * 2, start=120):
        end = i * 60 + 59
        db.put("m", end, value, {"node": "a"})
        got = refresher.run_many(_panels(end))
        assert _reply(got) == _reply(db.run_many(_panels(end))), (i, value)
    assert refresher.stats.incremental_runs == len(_panels(end)) * len(tail) * 2


# ---------------------------------------------------------------------------
# (b) Costs as counts: no series × instant matrix, no call per bucket
# ---------------------------------------------------------------------------


SERIES, POINTS = 100, 100


@pytest.fixture(scope="module")
def disjoint():
    """100 series that never share a second: 10 000 points on 10 000
    instants, so the series × instant matrix is 100 × 10 000 cells."""
    db = TSDB()
    rng = np.random.default_rng(5)
    for i in range(SERIES):
        ts = np.arange(POINTS, dtype=np.int64) * 3600 + i * 7
        db.put_series("m", ts, rng.normal(400.0, 25.0, POINTS), {"node": f"n{i:03d}"})
    return db


def test_order_statistics_build_no_matrix_and_no_call_per_bucket(disjoint, monkeypatch):
    calls = []

    def counting(fn):
        real = getattr(np, fn)

        def call(*args, **kwargs):
            calls.append(fn)
            return real(*args, **kwargs)

        return call

    for fn in ("median", "percentile", "nanmedian", "nanpercentile", "quantile"):
        monkeypatch.setattr(np, fn, counting(fn))
    end = POINTS * 3600
    cross = [Query("m", 0, end, aggregator=name) for name in ("median", "p95", "first", "last")]
    per_node = Query("m", 0, end, downsample="1h-p95", group_by=("node",))
    disjoint.run_many(cross + [per_node])  # warm-up
    matrix_bytes = 8 * SERIES * SERIES * POINTS
    for q in cross + [per_node]:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            (res,) = disjoint.run_many([q])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.scanned_points == SERIES * POINTS
        # the matrix alone is 8 MB; everything a panel allocates, ≤ 2 MB
        assert peak < matrix_bytes / 4, (q.aggregator, q.downsample, peak)
    # numpy's quantile functions: the parent made one call per panel and
    # one per bucket (10 000 for the per-node downsample); the algebra none
    assert calls == []
