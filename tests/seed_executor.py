"""The frozen seed executor and its aggregation oracle.

The equivalence suites hold the library's query engine and aggregation
algebra to these definitions, and the dashboard query benchmark under
``benchmarks/`` times the seed path against the batched planner.  The
aggregators are numpy definitions of their own, so no edit to the
library's aggregation algebra moves the oracle.
"""

from __future__ import annotations

import warnings
from collections import defaultdict

import numpy as np

from repro.tsdb import Query
from repro.tsdb.downsample import apply as apply_downsample
from repro.tsdb.query import QueryResult, ResultSeries, compute_rate
from repro.tsdb.series import SeriesSlice


# ---------------------------------------------------------------------------
# Frozen seed aggregators: the numpy definitions, kept here and not in
# the library, so that no edit to the library's aggregation algebra can
# move the oracle the equivalence suites hold it to.  SCALAR reduces one
# 1-D array (NaN ignored), COLUMNAR a (n_series, n_instants) matrix down
# its columns (NaN where a series has no point).
# ---------------------------------------------------------------------------


def _nan_safe(fn, empty: float = np.nan):
    def agg(values: np.ndarray) -> float:
        if values.size == 0:
            return empty
        finite = values[~np.isnan(values)]
        if finite.size == 0:
            return np.nan
        return float(fn(finite))

    return agg


def _count(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    return float(np.count_nonzero(~np.isnan(values)))


def _mask_empty(out: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    out = np.asarray(out, dtype=np.float64)
    empty = np.all(np.isnan(matrix), axis=0)
    if empty.any():
        out[empty] = np.nan
    return out


def _moments(matrix: np.ndarray):
    finite = ~np.isnan(matrix)
    return finite, finite.sum(axis=0), np.where(finite, matrix, 0.0).sum(axis=0)


def _col_sum(matrix: np.ndarray) -> np.ndarray:
    _, counts, sums = _moments(matrix)
    out = np.array(sums, dtype=np.float64)
    out[counts == 0] = np.nan
    return out


def _col_avg(matrix: np.ndarray) -> np.ndarray:
    _, counts, sums = _moments(matrix)
    return np.divide(sums, counts, out=np.full(counts.shape, np.nan), where=counts > 0)


def _col_dev(matrix: np.ndarray) -> np.ndarray:
    finite, counts, sums = _moments(matrix)
    with np.errstate(invalid="ignore", divide="ignore"):
        centered = np.where(finite, matrix - sums / counts, 0.0)
        out = np.sqrt((centered * centered).sum(axis=0) / counts)
    out[counts == 0] = np.nan
    return out


def _col_extreme(reduce, missing: float):
    def columnar(matrix: np.ndarray) -> np.ndarray:
        return _mask_empty(reduce(np.where(np.isnan(matrix), missing, matrix), axis=0),
                           matrix)

    return columnar


def _col_count(matrix: np.ndarray) -> np.ndarray:
    return (~np.isnan(matrix)).sum(axis=0).astype(np.float64)


def _col_first(matrix: np.ndarray) -> np.ndarray:
    idx = np.argmax(~np.isnan(matrix), axis=0)
    return _mask_empty(matrix[idx, np.arange(matrix.shape[1])], matrix)


def _col_last(matrix: np.ndarray) -> np.ndarray:
    idx = matrix.shape[0] - 1 - np.argmax(~np.isnan(matrix)[::-1], axis=0)
    return _mask_empty(matrix[idx, np.arange(matrix.shape[1])], matrix)


def _nanquiet(fn, matrix: np.ndarray, *args) -> np.ndarray:
    """Run a nan-reduction silencing the all-NaN-slice RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.asarray(fn(matrix, *args, axis=0), dtype=np.float64)


def _col_median(matrix: np.ndarray) -> np.ndarray:
    if np.isnan(matrix).any():
        return _nanquiet(np.nanmedian, matrix)
    return np.median(matrix, axis=0)


def _col_percentile(q: float):
    def columnar(matrix: np.ndarray) -> np.ndarray:
        if np.isnan(matrix).any():
            return _nanquiet(np.nanpercentile, matrix, q)
        return np.percentile(matrix, q, axis=0)

    return columnar


SCALAR = {
    "avg": _nan_safe(np.mean),
    "sum": _nan_safe(np.sum, empty=0.0),
    "min": _nan_safe(np.min),
    "max": _nan_safe(np.max),
    "median": _nan_safe(np.median),
    "dev": _nan_safe(lambda v: np.std(v, ddof=0)),
    "count": _count,
    "first": _nan_safe(lambda v: v[0]),
    "last": _nan_safe(lambda v: v[-1]),
    **{f"p{q}": _nan_safe(lambda v, q=q: np.percentile(v, q)) for q in (50, 90, 95, 99)},
}
COLUMNAR = {
    "avg": _col_avg,
    "sum": _col_sum,
    "min": _col_extreme(np.min, np.inf),
    "max": _col_extreme(np.max, -np.inf),
    "median": _col_median,
    "dev": _col_dev,
    "count": _col_count,
    "first": _col_first,
    "last": _col_last,
    **{f"p{q}": _col_percentile(q) for q in (50, 90, 95, 99)},
}
for _alias, _name in (("mean", "avg"), ("std", "dev")):
    SCALAR[_alias], COLUMNAR[_alias] = SCALAR[_name], COLUMNAR[_name]


# ---------------------------------------------------------------------------
# Frozen seed baseline: the pre-planner query path, verbatim.
# One scan per (query, key), np.unique timestamp unions — what `run()`
# executed before this redesign.  Kept here (not
# in the library) so the benchmark always measures the same baseline.
# ---------------------------------------------------------------------------


def _seed_aggregate_across(slices, agg):
    slices = [s for s in slices if len(s) > 0]
    if not slices:
        return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
    if len(slices) == 1:
        return slices[0]
    all_ts = np.unique(np.concatenate([s.timestamps for s in slices]))
    stacked = np.full((len(slices), all_ts.shape[0]), np.nan)
    for i, s in enumerate(slices):
        idx = np.searchsorted(all_ts, s.timestamps)
        stacked[i, idx] = s.values
    return SeriesSlice(all_ts, agg(stacked))


def _seed_execute_query(query, matched, scan):
    ds = query.downsample
    agg = COLUMNAR[query.aggregator]
    groups = defaultdict(list)
    for key in matched:
        label = tuple((g, key.tag(g, "")) for g in sorted(query.group_by))
        groups[label].append(key)
    scanned = 0
    series_out = []
    for label, keys in sorted(groups.items()):
        slices = []
        for key in sorted(keys, key=str):
            sl = scan(key)
            scanned += len(sl)
            if query.rate:
                sl = compute_rate(sl)
            slices.append(sl)
        combined = _seed_aggregate_across(slices, agg)
        if ds is not None:
            combined = apply_downsample(combined, ds, query.start, query.end)
        series_out.append(
            ResultSeries(
                metric=query.metric,
                group_tags=dict(label),
                slice=combined,
                source_series=tuple(sorted(keys, key=str)),
            )
        )
    if not series_out:
        empty = SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
        series_out.append(ResultSeries(query.metric, {}, empty, ()))
    return QueryResult(query=query, series=tuple(series_out), scanned_points=scanned)


def seed_run(db, query: Query) -> QueryResult:
    """The seed one-shot path."""
    matched = db._match(query.metric, query.tags)
    return _seed_execute_query(
        query,
        matched,
        lambda key: db._stores[key].scan(query.start, query.end),
    )
