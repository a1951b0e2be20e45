"""Replication benchmarks: steady-state lag, catch-up replay, failover.

The hot-standby trajectory measured end to end over real sockets,
recording the ``replication`` section of ``BENCH_ingest.json``:

- *steady-state lag*: paced ingest (sensor-arrival cadence) through a
  :class:`~repro.replication.ReplicatedStore` with a live follower —
  how many records sit unacknowledged at each pacing tick;
- *catch-up throughput*: the follower joins **after** the primary has
  accumulated a backlog, and must replay it from seq 1 (the disconnect
  / cold-standby recovery path);
- *failover to first query*: promote the caught-up follower, stand up
  a :class:`~repro.serve.server.QueryServer` on its store, and time
  the gap until the first client query is answered — the span a
  dashboard actually goes dark during a primary loss.

Gate: catch-up replay must apply points at >= 5x the paced live-ingest
rate — a standby that cannot out-run the ingest it missed would never
converge after an outage.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.replication import Follower, ReplicatedStore, SegmentShipper
from repro.serve import QueryClient, QueryServer
from repro.tsdb import BatchBuilder, Query, TSDB, wire

import bench_io  # noqa: E402
from bench_io import update_section  # noqa: E402

N_NODES = 10
ROWS_PER_NODE = 50          # 500 points per batch / log record
LIVE_ROUNDS = 80            # paced ingest batches
PACE_S = 0.005              # sensor-arrival cadence between batches
BACKLOG_ROUNDS = 400        # catch-up backlog batches (200k points)
GATE_SPEEDUP = 5.0


def make_batch(round_no: int) -> "BatchBuilder":
    """One paced arrival: ``N_NODES`` series, ``ROWS_PER_NODE`` rows."""
    builder = BatchBuilder()
    base = round_no * ROWS_PER_NODE * 60
    ts = base + np.arange(ROWS_PER_NODE, dtype=np.int64) * 60
    for node in range(N_NODES):
        builder.add_series(
            "air.co2.ppm",
            ts,
            400.0 + round_no + np.arange(ROWS_PER_NODE, dtype=np.float64),
            {"node": f"ctt-{node:02d}", "city": "trondheim"},
        )
    return builder.build()


@contextmanager
def bg_loop():
    """An event loop on its own thread, driven via coroutine handles."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        yield loop
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


def run_on(loop, coro, timeout=120):
    return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)


async def _start_follower(follower):
    return await follower.start()


async def _start_shipper(shipper):
    shipper.start()


def test_replication_lag_catchup_failover():
    report: dict = {
        "workload": {
            "points_per_record": N_NODES * ROWS_PER_NODE,
            "live_rounds": LIVE_ROUNDS,
            "pace_ms": PACE_S * 1e3,
            "backlog_records": BACKLOG_ROUNDS,
            "transport": "tcp length-prefixed segment blocks",
        },
    }

    with bg_loop() as loop:
        # -- steady-state: paced ingest with a live follower ------------
        follower = Follower()
        host, port = run_on(loop, _start_follower(follower))
        primary = ReplicatedStore(TSDB())
        shipper = SegmentShipper(primary.log, host, port,
                                 backoff=0.005, max_backoff=0.05, seed=0)
        run_on(loop, _start_shipper(shipper))

        lag_samples: list[int] = []
        t0 = time.perf_counter()
        for i in range(LIVE_ROUNDS):
            primary.put_batch(make_batch(i))
            time.sleep(PACE_S)
            lag_samples.append(shipper.lag_records)
        live_elapsed = time.perf_counter() - t0
        run_on(loop, shipper.wait_caught_up(timeout=60))
        run_on(loop, shipper.stop())
        run_on(loop, follower.stop())

        live_points = LIVE_ROUNDS * N_NODES * ROWS_PER_NODE
        live_rate = live_points / live_elapsed
        lag_samples.sort()
        report["steady_state"] = {
            "live_ingest_points_per_sec": round(live_rate),
            "lag_records_p50": lag_samples[len(lag_samples) // 2],
            "lag_records_p99": lag_samples[int(len(lag_samples) * 0.99)],
            "lag_records_max": lag_samples[-1],
        }

        # -- catch-up: the follower joins with a backlog waiting --------
        primary2 = ReplicatedStore(TSDB())
        for i in range(BACKLOG_ROUNDS):
            primary2.put_batch(make_batch(i))
        backlog_points = BACKLOG_ROUNDS * N_NODES * ROWS_PER_NODE

        late = Follower()
        lhost, lport = run_on(loop, _start_follower(late))
        shipper2 = SegmentShipper(primary2.log, lhost, lport,
                                  backoff=0.005, max_backoff=0.05, seed=0)
        t0 = time.perf_counter()
        run_on(loop, _start_shipper(shipper2))
        run_on(loop, shipper2.wait_caught_up(timeout=120))
        catchup_elapsed = time.perf_counter() - t0
        run_on(loop, shipper2.stop())
        catchup_rate = backlog_points / catchup_elapsed
        report["catchup"] = {
            "backlog_points": backlog_points,
            "elapsed_s": round(catchup_elapsed, 3),
            "points_per_sec": round(catchup_rate),
            "speedup_vs_live_ingest": round(catchup_rate / live_rate, 2),
        }

        # -- failover: promote + serve + first query answered -----------
        t_max = BACKLOG_ROUNDS * ROWS_PER_NODE * 60
        panel = Query("air.co2.ppm", 0, t_max, tags={"city": "trondheim"},
                      downsample="1h-avg")
        t0 = time.perf_counter()
        promoted = late.promote()
        run_on(loop, late.stop())
        server = QueryServer(promoted, port=0)
        run_on(loop, server.start())
        with QueryClient(*server.address, timeout=30, deadline=30) as client:
            first_reply = client.request([panel])
        failover_s = time.perf_counter() - t0
        run_on(loop, server.stop(timeout=10.0))
        report["failover"] = {
            "promote_to_first_query_ms": round(failover_s * 1e3, 2),
            "records_applied": late.stats.records_applied,
        }

    # The promoted answer is the primary's answer, byte for byte.
    assert first_reply["results"] == wire.encode_response(
        primary2.wrapped.run_many([panel])
    )["results"]
    assert late.applied_seq == primary2.log.last_seq

    print(f"\nBENCH_replication: live {report['steady_state']['live_ingest_points_per_sec']} pts/s "
          f"(lag p50 {report['steady_state']['lag_records_p50']} rec), "
          f"catch-up {report['catchup']['points_per_sec']} pts/s "
          f"({report['catchup']['speedup_vs_live_ingest']}x live), "
          f"failover {report['failover']['promote_to_first_query_ms']} ms")

    update_section("replication", report)

    # The acceptance gate: catch-up replay out-runs paced live ingest by
    # at least 5x, so a standby that missed an outage converges (wall
    # clock: make bench* / CI only).
    if bench_io.recording:
        assert report["catchup"]["points_per_sec"] >= GATE_SPEEDUP * live_rate, (
            f"catch-up only {catchup_rate / live_rate:.2f}x live ingest"
        )
