"""Ingest/query throughput of the columnar batch pipeline.

Writes ``BENCH_ingest.json`` at the repo root so successive PRs can
track the trajectory of the hot path: points/sec for the per-point
``put`` loop vs the columnar ``put_batch`` path on a 1M-point workload,
plus query latency over the resulting database.

The workload mimics live ingest: 100 series (25 nodes × 4 metrics),
timestamps round-robin across series in arrival order, a sprinkle of
out-of-order rows and duplicate timestamps so the dedup path is
exercised, not bypassed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.tsdb import BatchBuilder, Query, TSDB, dumps, run_boundaries

N_POINTS = 1_000_000
N_NODES = 25
METRICS = ["air.co2.ppm", "air.no2.ugm3", "air.pm10.ugm3", "weather.temperature.c"]
N_SERIES = N_NODES * len(METRICS)
import bench_io  # noqa: E402
from bench_io import update_top_level  # noqa: E402


@pytest.fixture(scope="module")
def workload():
    """Arrival-ordered (metric, node, ts, value) columns, 1M rows."""
    rng = np.random.default_rng(2017)
    rows_per_series = N_POINTS // N_SERIES
    # Round-robin arrival: at each cadence step every series reports once.
    base = np.repeat(np.arange(rows_per_series, dtype=np.int64) * 60, N_SERIES)
    series_idx = np.tile(np.arange(N_SERIES, dtype=np.int64), rows_per_series)
    ts = base + (series_idx % 7)  # small per-series phase offset
    # Disorder: swap ~1% of rows a few slots back (LoRaWAN retransmits).
    n = ts.shape[0]
    late = rng.random(n) < 0.01
    ts[late] -= 120
    values = rng.normal(400.0, 25.0, size=n)
    return series_idx, ts, values


def series_tags(s: int) -> tuple[str, dict]:
    return METRICS[s % len(METRICS)], {"node": f"ctt-{s // len(METRICS):02d}", "city": "trondheim"}


FLUSH_SIZE = 100_000


def columnar_ingest(db, series_idx, ts, values, tag_cache, flush=FLUSH_SIZE) -> float:
    """Ingest the workload in dataport-sized columnar flushes; returns
    elapsed seconds.  ``db`` is any TimeSeriesStore."""
    n = ts.shape[0]
    t0 = time.perf_counter()
    for lo in range(0, n, flush):
        hi = min(lo + flush, n)
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
    return time.perf_counter() - t0


def test_batch_ingest_at_least_5x_faster_than_per_point(workload):
    series_idx, ts, values = workload
    n = ts.shape[0]

    # --- seed-style per-point loop -------------------------------------
    per_point_db = TSDB()
    tag_cache = [series_tags(s) for s in range(N_SERIES)]
    sidx = series_idx.tolist()
    tlist = ts.tolist()
    vlist = values.tolist()
    t0 = time.perf_counter()
    put = per_point_db.put
    for s, t, v in zip(sidx, tlist, vlist):
        metric, tags = tag_cache[s]
        put(metric, t, v, tags)
    per_point_s = time.perf_counter() - t0

    # --- columnar batch path -------------------------------------------
    # Accumulate through a BatchBuilder in dataport-sized flushes
    # (100k points), exactly as the batching writer does under load.
    batch_db = TSDB()
    batch_s = columnar_ingest(batch_db, series_idx, ts, values, tag_cache)

    # --- equivalence: same database state ------------------------------
    assert batch_db.point_count == per_point_db.point_count
    probe_metric, probe_tags = tag_cache[0]
    q = Query(probe_metric, 0, int(ts.max()), tags=probe_tags)
    a = per_point_db.run(q).single()
    b = batch_db.run(q).single()
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.allclose(a.values, b.values)

    # --- query latency over the 1M-point database ----------------------
    city_q = Query(
        METRICS[0], 0, int(ts.max()), tags={"city": "trondheim"}, downsample="5m-avg"
    )
    latencies = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = batch_db.run(city_q)
        latencies.append(time.perf_counter() - t0)
    query_ms = sorted(latencies)[1] * 1e3

    speedup = per_point_s / batch_s
    report = {
        "workload": {
            "points": n,
            "series": N_SERIES,
            "out_of_order_fraction": 0.01,
        },
        "per_point": {
            "seconds": round(per_point_s, 3),
            "points_per_sec": round(n / per_point_s),
        },
        "batch": {
            "seconds": round(batch_s, 3),
            "points_per_sec": round(n / batch_s),
            "flush_size": FLUSH_SIZE,
        },
        "speedup": round(speedup, 1),
        "query_1m_points": {
            "downsample": "5m-avg",
            "scanned_points": res.scanned_points,
            "median_latency_ms": round(query_ms, 2),
        },
    }
    update_top_level(report)
    print(f"\nBENCH_ingest: per-point {n / per_point_s:,.0f} pts/s, "
          f"batch {n / batch_s:,.0f} pts/s, speedup {speedup:.1f}x, "
          f"query {query_ms:.1f} ms")
    if bench_io.recording:  # a wall-clock gate: make bench* / CI only
        assert speedup >= 5.0, f"batch path only {speedup:.1f}x faster"


def test_small_batch_equivalence_snapshot():
    """Cheap exactness check riding along with the big benchmark: the
    two paths produce byte-identical snapshots on a mixed workload."""
    rng = np.random.default_rng(5)
    a, b = TSDB(), TSDB()
    builder = BatchBuilder()
    for i in range(5_000):
        s = int(rng.integers(N_SERIES))
        metric, tags = series_tags(s)
        t = int(rng.integers(0, 3_600))
        v = float(rng.normal())
        a.put(metric, t, v, tags)
        builder.add(metric, t, v, tags)
        if i % 1_024 == 0:
            b.put_batch(builder.build())
    b.put_batch(builder.build())
    assert dumps(a) == dumps(b)
