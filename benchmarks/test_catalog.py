"""Series-catalog matching at scale: postings index vs brute-force scan.

The catalog exists for exactly this workload: a store holding 100k+
series (the multi-year city archive) answering tag-filtered matches for
every query the planner sees.  Before the catalog, ``_match`` walked
every series of the metric calling ``key.matches``; the inverted
postings index answers the same question from a handful of set
intersections.

This benchmark builds a 120k-series store (4 metrics × 100 cities ×
75 nodes), measures representative filters through both paths —

- *indexed_ms*: ``store.catalog.match`` through the catalog postings
  (``store._match`` keeps the answer per filter: it would time a hit);
- *scan_ms*:    the pre-catalog reference — iterate the metric's keys,
  ``key.matches`` each, sort;

— asserts the results are **identical** (same keys, same order), gates
the headline claim (indexed wildcard matching ≥5× faster than the
scan), and records the ``catalog`` section of ``BENCH_ingest.json``
with the metadata-op latencies alongside.
"""

from __future__ import annotations

import time

import pytest

from repro.tsdb import TSDB

import bench_io  # noqa: E402
from bench_io import update_section  # noqa: E402

METRICS = [
    "air.co2.ppm", "air.no2.ugm3", "air.pm10.ugm3", "weather.temperature.c",
]
N_CITIES = 100
N_NODES = 300
N_SERIES = len(METRICS) * N_CITIES * N_NODES  # 30k per metric, 120k total
REPEATS = 5

#: Representative filters: the suggest-driven drill-down (one city, all
#: nodes), an alternation over cities, and a fully exact lookup.
FILTERS = {
    "city_wildcard": {"city": "c042", "node": "*"},
    "alternation": {"city": "c007|c077"},
    "exact": {"city": "c042", "node": "n0042"},
}

#: The headline gate: indexed matching must beat the scan by this much.
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def store():
    db = TSDB()
    ts = 0
    for metric in METRICS:
        for c in range(N_CITIES):
            for n in range(N_NODES):
                db.put(metric, ts, 1.0,
                       {"city": f"c{c:03d}", "node": f"n{n:04d}"})
    assert db.series_count == N_SERIES
    return db


def _scan_match(all_keys, tags):
    """The pre-catalog implementation, verbatim in spirit: full scan of
    the metric's series + ``key.matches``, sorted for the pinned order.
    """
    return sorted((k for k in all_keys if k.matches(tags)), key=str)


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0, result


def test_indexed_match_vs_scan(store):
    metric = METRICS[0]
    # The scan baseline gets the metric's key list for free — only the
    # per-key matching and sorting are timed, which flatters the old
    # path if anything.
    all_keys = store.series_for_metric(metric)
    assert len(all_keys) == N_CITIES * N_NODES

    section: dict = {"series": N_SERIES, "series_per_metric": len(all_keys),
                     "filters": {}}
    speedups = []
    for name, tags in FILTERS.items():
        indexed_ms, via_index = _best_of(lambda: store.catalog.match(metric, tags))
        scan_ms, via_scan = _best_of(lambda: _scan_match(all_keys, tags))
        assert via_index == via_scan, f"divergence on {name}"
        speedup = scan_ms / indexed_ms if indexed_ms else float("inf")
        speedups.append((name, speedup))
        section["filters"][name] = {
            "matched": len(via_index),
            "indexed_ms": round(indexed_ms, 4),
            "scan_ms": round(scan_ms, 4),
            "speedup": round(speedup, 1),
        }

    # Metadata-op latencies ride along (no gate: they are index reads).
    for op, fn in {
        "metrics": store.metrics,
        "tag_values": lambda: store.tag_values(metric, "node"),
        "cardinality": lambda: store.cardinality(
            metric, {"city": "c042", "node": "*"}),
    }.items():
        ms, _ = _best_of(fn)
        section[f"{op}_ms"] = round(ms, 4)

    section["min_speedup"] = round(min(s for _, s in speedups), 1)
    update_section("catalog", section)
    print(f"\nBENCH catalog: {N_SERIES:,} series; " + "; ".join(
        f"{name} {section['filters'][name]['speedup']}x"
        for name in FILTERS))

    for name, speedup in speedups:
        if bench_io.recording:  # a wall-clock gate: make bench* / CI only
            assert speedup >= MIN_SPEEDUP, (
                f"indexed {name} matching only {speedup:.1f}x faster than the "
                f"scan (gate: {MIN_SPEEDUP}x)"
            )
