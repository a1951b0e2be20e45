"""Regional fan-in throughput: 1/2/4 cities into one store.

Extends ``BENCH_ingest.json`` with a ``region_fanin`` section so
successive PRs can track what the queue/hub layer costs on top of the
raw columnar path: per-city batches enter through ``CityIngress`` lanes
(bounded queues, block backpressure), hub ticks drain them into the
regional store, and the recorded number is end-to-end points/s
through the whole fan-in machinery.

Correctness rides along: every configuration must land *all* points
(zero drops under ``block``) and honour the bounded-depth invariant
throughout.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.region import CityPolicy, RegionalHub
from repro.simclock import Scheduler, SimClock
from repro.tsdb import PointBatch, TSDB

POINTS_PER_CITY = 200_000
BATCH_ROWS = 10_000
N_NODES = 10
METRICS = ("air.co2.ppm", "air.no2.ugm3", "weather.temperature.c")
from bench_io import update_section  # noqa: E402


def build_city_batches(city: str, seed: int) -> list[PointBatch]:
    """Arrival-ordered columnar batches for one city's dataport."""
    rng = np.random.default_rng(seed)
    batches = []
    for b in range(POINTS_PER_CITY // BATCH_ROWS):
        base = b * BATCH_ROWS * 60
        ts = base + np.arange(BATCH_ROWS, dtype=np.int64) * 60
        vals = rng.normal(400.0, 25.0, size=BATCH_ROWS)
        metric = METRICS[b % len(METRICS)]
        node = f"ctt-{b % N_NODES:02d}"
        batches.append(
            PointBatch.for_series(metric, ts, vals, {"node": node, "city": city})
        )
    return batches


@pytest.mark.parametrize("n_cities", (1, 2, 4))
def test_fanin_throughput(n_cities):
    cities = [f"city-{i:02d}" for i in range(n_cities)]
    traffic = {c: build_city_batches(c, seed=40 + i) for i, c in enumerate(cities)}
    total = n_cities * POINTS_PER_CITY

    scheduler = Scheduler(SimClock(start=0))
    store = TSDB()
    hub = RegionalHub(store, scheduler, flush_interval_s=60)
    lanes = {
        c: hub.register_city(CityPolicy(c, queue_capacity=4 * BATCH_ROWS))
        for c in cities
    }
    hub.start()

    t0 = time.perf_counter()
    for i in range(POINTS_PER_CITY // BATCH_ROWS):
        for c in cities:
            lanes[c].put_batch(traffic[c][i])
        scheduler.run_for(60)  # one hub tick: drain every lane
        for c in cities:
            assert hub.queue(c).depth_points <= 4 * BATCH_ROWS
    hub.drain_all()
    elapsed = time.perf_counter() - t0

    # Zero loss, exact accounting, everything queryable.
    assert store.exact_point_count() == total
    for c in cities:
        stats = hub.city_stats(c)
        assert stats["dropped_points"] == 0
        assert stats["flushed_points"] == POINTS_PER_CITY

    pts_per_sec = total / elapsed
    update_section("region_fanin", {
        "store": "tsdb",
        "points_per_city": POINTS_PER_CITY,
        "cities": {str(n_cities): {
            "seconds": round(elapsed, 3),
            "points_per_sec": round(pts_per_sec),
        }},
    }, merge=True)
    print(
        f"\nBENCH_region[{n_cities} cities]: {total:,} pts in {elapsed:.3f}s "
        f"({pts_per_sec:,.0f} pts/s through the fan-in layer)"
    )
