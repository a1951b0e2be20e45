"""Networked serving throughput: TCP end-to-end over the live store.

The ROADMAP item-1 workload: dashboard clients hammering one
:class:`~repro.serve.server.QueryServer` over TCP with the same
12-panel batch.  Measured end to end (encode → socket → admission →
planner → cache → socket → decode) against the 1M-point ingest
database, recording the ``serve`` section of ``BENCH_ingest.json``:

- *cold_ms*: the full batch with an empty result cache and no panel
  state (``server.caching.clear()``) — every panel pays its scans;
- *cached_ms*: the identical batch again — all panels answered from the
  generation-validated result cache (one JSON round trip, zero scans);
- *incremental_ms*: steady-state dashboard polling — a minute of new
  points lands, the window slides, and the request is answered from the
  panel state's held buckets (delta scan + splice, not a full re-scan);
- *sustained queries/sec*: N concurrent clients replaying a cached
  panel as fast as the server answers.

Gate: the cached batch must beat the cold batch by ≥5× — the refresh
storm the cache exists for — while staying byte-identical to the
uncached planner output.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.serve import QueryClient, QueryServer
from repro.tsdb import TSDB, BatchBuilder, Query, run_boundaries, wire

N_POINTS = 1_000_000
N_NODES = 25
METRICS = ["air.co2.ppm", "air.no2.ugm3", "air.pm10.ugm3", "weather.temperature.c"]
N_SERIES = N_NODES * len(METRICS)
import bench_io  # noqa: E402
from bench_io import update_section  # noqa: E402
FLUSH_SIZE = 100_000
REPEATS = 5
N_CLIENTS = 4
REQUESTS_PER_CLIENT = 100
REFRESH_ROUNDS = 6


def series_tags(s: int) -> tuple[str, dict]:
    return METRICS[s % len(METRICS)], {
        "node": f"ctt-{s // len(METRICS):02d}", "city": "trondheim",
    }


def dashboard_queries(t_max: int) -> list[Query]:
    """The 12-panel wall-display dashboard: same shape as the query
    benchmark, at wall-display bucket widths (the response stays small
    relative to the history scanned, as on a real overview screen).
    """
    panels: list[Query] = []
    for metric in METRICS:
        city = {"city": "trondheim"}
        panels.append(Query(metric, 0, t_max, tags=city, downsample="30m-avg"))
        panels.append(
            Query(metric, 0, t_max, tags=city, aggregator="dev",
                  downsample="1h-max")
        )
        panels.append(
            Query(metric, 0, t_max, tags=city, downsample="1h-avg",
                  group_by=("node",))
        )
    return panels


@pytest.fixture(scope="module")
def store():
    """The 1M-point arrival-ordered ingest workload."""
    rng = np.random.default_rng(2017)
    rows_per_series = N_POINTS // N_SERIES
    base = np.repeat(np.arange(rows_per_series, dtype=np.int64) * 60, N_SERIES)
    series_idx = np.tile(np.arange(N_SERIES, dtype=np.int64), rows_per_series)
    ts = base + (series_idx % 7)
    late = rng.random(ts.shape[0]) < 0.01
    ts[late] -= 120
    values = rng.normal(400.0, 25.0, size=ts.shape[0])

    db = TSDB()
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
    return db, int(ts.max())


@contextmanager
def live_server(store, **kwargs):
    server = QueryServer(store, port=0, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    stop_holder: list[asyncio.Event] = []

    async def main():
        stop = asyncio.Event()
        stop_holder.append(stop)
        await server.start()
        started.set()
        await stop.wait()
        await server.stop()

    thread = threading.Thread(
        target=lambda: loop.run_until_complete(main()), daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(stop_holder[0].set)
        thread.join(timeout=10)
        loop.close()


def median_ms(samples: list[float]) -> float:
    return round(sorted(samples)[len(samples) // 2] * 1e3, 2)


def append_minute(db, t: int) -> None:
    """One new point per series at timestamp ``t`` (steady-state drip)."""
    builder = BatchBuilder()
    one_ts = np.array([t], np.int64)
    for s in range(N_SERIES):
        metric, tags = series_tags(s)
        builder.add_series(metric, one_ts, np.array([400.0 + s], np.float64),
                           tags)
    db.put_batch(builder.build())


def test_cached_refresh_beats_cold(store):
    db, t_max = store
    panels = dashboard_queries(t_max)
    report: dict = {
        "workload": {
            "points": N_POINTS,
            "series": N_SERIES,
            "panels": len(panels),
            "repeats": REPEATS,
            "transport": "tcp newline-delimited json",
        },
    }

    with live_server(db) as server:
        with QueryClient(*server.address, timeout=60) as client:
            # -- cold: empty cache and no panel state (a plain request
            # would otherwise splice held buckets): every panel pays
            # its scans ------------------------------------------------
            cold_samples, cold_reply = [], None
            for _ in range(REPEATS):
                server.caching.clear()
                t0 = time.perf_counter()
                cold_reply = client.request(panels)
                cold_samples.append(time.perf_counter() - t0)
            cold_ms = median_ms(cold_samples)

            # -- cached: identical batch, zero scans --------------------
            cached_samples, cached_reply = [], None
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                cached_reply = client.request(panels)
                cached_samples.append(time.perf_counter() - t0)
            cached_ms = median_ms(cached_samples)

            # byte-identical through the wire (ids aside)
            cold_reply.pop("id", None)
            cached_reply.pop("id", None)
            assert cached_reply == cold_reply
            assert cold_reply == wire.encode_response(db.run_many(panels))

            # -- sustained: N concurrent clients on a cached panel ------
            panel = panels[0]
            failures: list = []

            def hammer():
                try:
                    with QueryClient(*server.address, timeout=60) as c:
                        for _ in range(REQUESTS_PER_CLIENT):
                            reply = c.request([panel])
                            if "error" in reply:
                                failures.append(reply)
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(exc)

            threads = [threading.Thread(target=hammer)
                       for _ in range(N_CLIENTS)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            sustained_s = time.perf_counter() - t0
            assert not failures
            qps = round(N_CLIENTS * REQUESTS_PER_CLIENT / sustained_s)

            # -- incremental: the window slides as new points land ------
            now = t_max
            inc_samples = []
            inc_reply = None
            for round_no in range(REFRESH_ROUNDS):
                now += 60
                append_minute(db, now)
                sliding = dashboard_queries(now)
                t0 = time.perf_counter()
                inc_reply = client.request(sliding)
                inc_samples.append(time.perf_counter() - t0)
            # the plain requests above left panel state, so even the
            # first round splices; the median skips it as before
            incremental_ms = median_ms(inc_samples[1:])
            inc_reply.pop("id", None)
            # splice ≡ full re-scan, through the wire, scannedPoints included
            assert inc_reply == wire.encode_response(db.run_many(sliding))

        stats = server.stats()

    refresh = stats["refresh"]
    assert refresh["incremental_runs"] > 0
    report["cold_ms"] = cold_ms
    report["cached_ms"] = cached_ms
    report["incremental_ms"] = incremental_ms
    report["cached_speedup_vs_cold"] = round(cold_ms / cached_ms, 2)
    report["sustained"] = {
        "clients": N_CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "queries_per_sec": qps,
    }
    report["server_stats"] = {
        "requests": stats["requests"],
        "cache": stats["cache"],
        "refresh": refresh,
    }
    print(f"\nBENCH_serve: cold {cold_ms} ms, cached {cached_ms} ms "
          f"({report['cached_speedup_vs_cold']}x), incremental "
          f"{incremental_ms} ms, sustained {qps} q/s "
          f"({N_CLIENTS} clients)")

    update_section("serve", report)

    # The acceptance gate: a cached dashboard refresh answers at least
    # 5x faster than the cold batch it replays (wall clock: make bench* /
    # CI only).
    if bench_io.recording:
        assert cold_ms / cached_ms >= 5.0, (
            f"cached refresh only {cold_ms / cached_ms:.2f}x faster than cold"
        )
