"""Dashboard query throughput: seed one-shot vs the v2 batched planner.

The paper's dashboards fire many simultaneous OpenTSDB-shape queries
over the same city feeds.  This benchmark replays that workload — a
12-panel dashboard (per-metric city average, city spread, and per-node
breakdown, over 4 metrics) against the 1M-point ingest database — and
records the ``query`` section of ``BENCH_ingest.json``:

- *seed_sequential*: one query at a time through a frozen replica of
  the seed execution path (per-call match + scans, hash-based unique
  timestamp union) — the pre-redesign baseline
  the acceptance gate measures against;
- *sequential*: one ``run()`` per panel on today's engine — the shims
  share the planner's faster exact kernels but plan each call alone;
- *batched*: one ``run_many`` over all panels — shared matching, one
  scan per touched series, one alignment shared across panels.

Gate: batched ``run_many`` must beat the sequential seed path by ≥2× —
while every path returns byte-identical results.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict

import numpy as np
import pytest

from repro.tsdb import (
    BatchBuilder,
    Query,
    TSDB,
    run_boundaries,
)
from repro.tsdb.downsample import apply as apply_downsample
from repro.tsdb.query import QueryResult, ResultSeries, compute_rate
from repro.tsdb.series import SeriesSlice

N_POINTS = 1_000_000
N_NODES = 25
METRICS = ["air.co2.ppm", "air.no2.ugm3", "air.pm10.ugm3", "weather.temperature.c"]
N_SERIES = N_NODES * len(METRICS)
import bench_io  # noqa: E402
from bench_io import update_section  # noqa: E402
FLUSH_SIZE = 100_000
REPEATS = 5


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


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    """Same 1M-point arrival-ordered workload as the ingest benchmark."""
    rng = np.random.default_rng(2017)
    rows_per_series = N_POINTS // N_SERIES
    base = np.repeat(np.arange(rows_per_series, dtype=np.int64) * 60, N_SERIES)
    series_idx = np.tile(np.arange(N_SERIES, dtype=np.int64), rows_per_series)
    ts = base + (series_idx % 7)
    late = rng.random(ts.shape[0]) < 0.01
    ts[late] -= 120
    values = rng.normal(400.0, 25.0, size=ts.shape[0])
    return series_idx, ts, values


def series_tags(s: int) -> tuple[str, dict]:
    return METRICS[s % len(METRICS)], {
        "node": f"ctt-{s // len(METRICS):02d}", "city": "trondheim",
    }


def ingest(db, series_idx, ts, values) -> None:
    tag_cache = [series_tags(s) for s in range(N_SERIES)]
    n = ts.shape[0]
    for lo in range(0, n, FLUSH_SIZE):
        hi = min(lo + FLUSH_SIZE, n)
        builder = BatchBuilder()
        chunk_series = series_idx[lo:hi]
        order = np.argsort(chunk_series, kind="stable")
        chunk_series = chunk_series[order]
        chunk_ts = ts[lo:hi][order]
        chunk_vals = values[lo:hi][order]
        starts, ends = run_boundaries(chunk_series)
        for s, e in zip(starts, ends):
            metric, tags = tag_cache[int(chunk_series[s])]
            builder.add_series(metric, chunk_ts[s:e], chunk_vals[s:e], tags)
        db.put_batch(builder.build())


def dashboard_queries(t_max: int) -> list[Query]:
    """The 12-panel dashboard: 3 panels per metric over 4 metrics.

    Per metric: the city-wide mean, the city-wide spread (same series
    and window — the batch shares their alignment work), and the
    per-node breakdown (single-series groups).
    """
    panels: list[Query] = []
    for metric in METRICS:
        city = {"city": "trondheim"}
        panels.append(Query(metric, 0, t_max, tags=city, downsample="5m-avg"))
        panels.append(
            Query(metric, 0, t_max, tags=city, aggregator="dev",
                  downsample="15m-max")
        )
        panels.append(
            Query(metric, 0, t_max, tags=city, downsample="5m-avg",
                  group_by=("node",))
        )
    return panels


def median_seconds(fn, repeats: int = REPEATS) -> tuple[float, object]:
    out = None
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2], out


def assert_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb)
        assert ra.scanned_points == rb.scanned_points
        for sa, sb in zip(ra, rb):
            assert dict(sa.group_tags) == dict(sb.group_tags)
            assert np.array_equal(sa.timestamps, sb.timestamps)
            assert np.array_equal(sa.values, sb.values, equal_nan=True)


def test_batched_dashboard_beats_sequential(workload):
    series_idx, ts, values = workload
    t_max = int(ts.max())
    panels = dashboard_queries(t_max)

    report: dict = {
        "workload": {
            "points": int(ts.shape[0]),
            "series": N_SERIES,
            "panels": len(panels),
            "repeats": REPEATS,
        },
        "stores": {},
    }

    single = TSDB()
    ingest(single, series_idx, ts, values)
    seed_single_s, reference = median_seconds(
        lambda: [seed_run(single, q) for q in panels]
    )
    seq_single_s, seq_single = median_seconds(
        lambda: [single.run(q) for q in panels]
    )
    batch_single_s, batch_single = median_seconds(
        lambda: single.run_many(panels)
    )
    assert_identical(seq_single, reference)
    assert_identical(batch_single, reference)
    report["stores"]["single"] = {
        "seed_sequential_ms": round(seed_single_s * 1e3, 2),
        "sequential_ms": round(seq_single_s * 1e3, 2),
        "batched_ms": round(batch_single_s * 1e3, 2),
        "batched_speedup_vs_seed": round(seed_single_s / batch_single_s, 2),
    }
    print(f"\nBENCH_query[single]: seed {seed_single_s * 1e3:.1f} ms, "
          f"sequential {seq_single_s * 1e3:.1f} ms, "
          f"batched {batch_single_s * 1e3:.1f} ms "
          f"({seed_single_s / batch_single_s:.2f}x vs seed)")

    update_section("query", report)

    # The acceptance gate: batched multi-query execution beats N
    # sequential seed run() calls by >=2x (wall clock: make bench* / CI
    # only).
    speedup = seed_single_s / batch_single_s
    if bench_io.recording:
        assert speedup >= 2.0, (
            f"batched dashboard only {speedup:.2f}x faster than the seed path"
        )
