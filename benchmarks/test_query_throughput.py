"""Dashboard query throughput: seed one-shot vs the v2 batched planner.

The paper's dashboards fire many simultaneous OpenTSDB-shape queries
over the same city feeds.  This benchmark replays that workload — a
12-panel dashboard (per-metric city average, city spread, and per-node
breakdown, over 4 metrics) against a 1M-point database — and
records the ``query`` section of ``BENCH_ingest.json``:

- *seed_sequential*: one query at a time through a frozen replica of
  the seed execution path (per-call match + scans, hash-based unique
  timestamp union; ``tests/seed_executor.py``, which the equivalence
  suites hold the engine to) — the pre-redesign baseline the acceptance
  gate measures against;
- *sequential*: one ``run()`` per panel on today's engine — the shims
  share the planner's faster exact kernels but plan each call alone;
- *batched*: one ``run_many`` over all panels — shared matching, one
  scan per touched series, one alignment shared across panels.

Gate: batched ``run_many`` must beat the sequential seed path by ≥2× —
while every path returns byte-identical results.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import bench_io
from bench_io import update_section
from repro.tsdb import Query, TSDB
from seed_executor import seed_run
from test_tsdb_batch import FEED_METRICS, FEED_SERIES, arrival_feed, feed_flushes

N_POINTS = 1_000_000
FLUSH_SIZE = 100_000
REPEATS = 5


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    """1M arrival-ordered rows of the city feed of ``tests/test_tsdb_batch.py``."""
    return arrival_feed(rows_per_series=N_POINTS // FEED_SERIES)


def dashboard_queries(t_max: int) -> list[Query]:
    """The 12-panel dashboard: 3 panels per metric over 4 metrics.

    Per metric: the city-wide mean, the city-wide spread (same series
    and window — the batch shares their alignment work), and the
    per-node breakdown (single-series groups).
    """
    panels: list[Query] = []
    for metric in FEED_METRICS:
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
            "series": FEED_SERIES,
            "panels": len(panels),
            "repeats": REPEATS,
        },
        "stores": {},
    }

    single = TSDB()
    for batch in feed_flushes(series_idx, ts, values, flush=FLUSH_SIZE):
        single.put_batch(batch)
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
