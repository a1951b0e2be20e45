"""Dashboard query throughput: seed one-shot vs the v2 batched planner.

The paper's dashboards fire many simultaneous OpenTSDB-shape queries
over the same city feeds.  This benchmark replays that workload — a
12-panel dashboard (per-metric city average, city spread, and per-node
breakdown, over 4 metrics) against the 1M-point ingest database — and
records the ``query`` section of ``BENCH_ingest.json``:

- *seed_sequential*: one query at a time through a frozen replica of
  the seed execution path (per-call match + scans, hash-based unique
  timestamp union, serial shard fan-out) — the pre-redesign baseline
  the acceptance gate measures against;
- *sequential*: one ``run()`` per panel on today's engine — the shims
  share the planner's faster exact kernels but plan each call alone;
- *batched*: one ``run_many`` over all panels — shared matching, one
  scan per touched series, one alignment shared across panels; the
  same executor on the single and the sharded store.

Gate: on the 4-shard store, batched ``run_many`` must beat the
sequential seed path by ≥2× — while every path returns byte-identical
results (asserted here on every shard count).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
import pytest

from repro.tsdb import (
    BatchBuilder,
    Query,
    ShardedTSDB,
    TSDB,
    aggregators,
    run_boundaries,
)
from repro.tsdb.downsample import apply as apply_downsample
from repro.tsdb.query import QueryResult, ResultSeries, compute_rate
from repro.tsdb.series import SeriesSlice

N_POINTS = 1_000_000
N_NODES = 25
METRICS = ["air.co2.ppm", "air.no2.ugm3", "air.pm10.ugm3", "weather.temperature.c"]
N_SERIES = N_NODES * len(METRICS)
from bench_io import update_section  # noqa: E402
SHARD_COUNTS = (1, 4, 8)
FLUSH_SIZE = 100_000
REPEATS = 5


# ---------------------------------------------------------------------------
# Frozen seed baseline: the pre-planner query path, verbatim.
# One scan per (query, key), np.unique timestamp unions, serial shard
# fan-out — what `run()` executed before this redesign.  Kept here (not
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
    ds = query.parsed_downsample()
    agg = aggregators.get_columnar(query.aggregator)
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
    """The seed one-shot path, for single or sharded stores."""
    if isinstance(db, ShardedTSDB):
        slices = {}
        for sh in db.shards:
            for key in sh._match(query.metric, query.tags):
                slices[key] = sh._stores[key].scan(query.start, query.end)
        return _seed_execute_query(query, list(slices), slices.__getitem__)
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
    per-node breakdown (single-series groups — pushed down whole into
    the owning shards).
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

    speedup_at_4 = None
    for shards in SHARD_COUNTS:
        db = ShardedTSDB(shards)
        ingest(db, series_idx, ts, values)

        # The seed model: one query at a time, serial fan-out, no reuse.
        seed_s, seed_results = median_seconds(
            lambda: [seed_run(db, q) for q in panels]
        )
        # Today's one-shot shims (each call plans alone).
        seq_s, seq_results = median_seconds(
            lambda: [db.run(q) for q in panels]
        )
        batch_s, batch_results = median_seconds(
            lambda: db.run_many(panels)
        )

        assert_identical(seq_results, seed_results)
        assert_identical(batch_results, seed_results)
        assert_identical(seed_results, reference)

        speedup = seed_s / batch_s
        if shards == 4:
            speedup_at_4 = speedup
        report["stores"][f"sharded_{shards}"] = {
            "seed_sequential_ms": round(seed_s * 1e3, 2),
            "sequential_ms": round(seq_s * 1e3, 2),
            "batched_ms": round(batch_s * 1e3, 2),
            "batched_speedup_vs_seed": round(speedup, 2),
        }
        print(f"BENCH_query[{shards} shards]: seed {seed_s * 1e3:.1f} ms, "
              f"sequential {seq_s * 1e3:.1f} ms, "
              f"batched {batch_s * 1e3:.1f} ms ({speedup:.2f}x vs seed)")

    update_section("query", report)

    # The acceptance gate: batched multi-query execution on the 4-shard
    # store beats N sequential seed run() calls by >=2x.
    assert speedup_at_4 is not None and speedup_at_4 >= 2.0, (
        f"batched dashboard only {speedup_at_4:.2f}x faster than the seed "
        "path on 4 shards"
    )
