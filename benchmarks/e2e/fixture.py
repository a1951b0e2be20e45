"""The one seeded fixture every workload and the traced trial run on.

``build`` assembles the production-shaped stack from the program's
public constructors only::

    NetworkServer -> TtnMqttBridge -> Broker -> Dataport
        -> DurableStore(ReplicatedStore(ShardedTSDB(4)))   binary WAL on disk
        -> ReplicationLog -> SegmentShipper ~tcp~> Follower(ShardedTSDB(4))
    QueryClient ~tcp~> QueryServer(CachingStore + IncrementalRefresher)

bulk-loads the seeded history *through the full write stack*, waits for
the follower, and returns a :class:`Stack`.  The only threads besides
the caller's are the program's own: one asyncio loop thread shared by
server, shipper and follower, and the server's executor.

Flush policy is the code's own: ``SegmentWriter`` flushes each block to
the OS, nothing fsyncs.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dataport import Dataport, TtnMqttBridge
from repro.lorawan import NetworkServer
from repro.mqtt import Broker
from repro.replication import Follower, ReplicatedStore, ReplicationLog, SegmentShipper
from repro.serve import QueryClient, QueryServer
from repro.simclock import Scheduler, SimClock
from repro.tsdb import (
    BatchBuilder,
    DurableStore,
    PointBatch,
    ShardedTSDB,
    run_boundaries,
)

from . import OUT_DIR
from .calibrate import Speedometer
from .spans import ScanProxy, SpanBroker, SpanProxy, Tracer

CITY = "trondheim"
METRICS = ("air.co2.ppm", "air.no2.ugm3", "air.pm10.ugm3", "weather.temperature.c")
HISTORY_NODES = 25
HISTORY_SERIES = HISTORY_NODES * len(METRICS)
HISTORY_POINTS = 1_000_000
CADENCE_S = 60
BULK_BATCHES = 10
LATE_SHARE = 0.01
SHARDS = 4
UPLINK_NODES = 200
GATEWAYS = ("gw-nidarosdomen", "gw-tyholt")
TIMEOUT_S = 120.0


def series_tags(s: int) -> tuple[str, dict[str, str]]:
    """Metric and tags of history series ``s``."""
    return METRICS[s % len(METRICS)], {
        "node": f"ctt-{s // len(METRICS):02d}",
        "city": CITY,
    }


def uplink_node(i: int) -> str:
    return f"ctt-u{i:03d}"


def history_batches(seed: int, points: int) -> tuple[list[PointBatch], int]:
    """The seeded history in arrival order, cut into the bulk batches.

    ``points`` over 100 series at 60 s cadence, 1 % of them two minutes
    late.  Returns the batches and the newest timestamp.
    """
    rng = np.random.default_rng([seed, 0])
    rows = points // HISTORY_SERIES
    series_idx = np.tile(np.arange(HISTORY_SERIES, dtype=np.int64), rows)
    ts = np.repeat(np.arange(rows, dtype=np.int64) * CADENCE_S, HISTORY_SERIES)
    ts += series_idx % 7
    ts[rng.random(ts.shape[0]) < LATE_SHARE] -= 2 * CADENCE_S
    values = rng.normal(400.0, 25.0, size=ts.shape[0])

    tags = [series_tags(s) for s in range(HISTORY_SERIES)]
    n = ts.shape[0]
    step = -(-n // BULK_BATCHES)
    batches = []
    for lo in range(0, n, step):
        order = np.argsort(series_idx[lo:lo + step], kind="stable")
        chunk_series = series_idx[lo:lo + step][order]
        chunk_ts = ts[lo:lo + step][order]
        chunk_values = values[lo:lo + step][order]
        builder = BatchBuilder()
        for s, e in zip(*run_boundaries(chunk_series)):
            metric, series_tag = tags[int(chunk_series[s])]
            builder.add_series(metric, chunk_ts[s:e], chunk_values[s:e], series_tag)
        batches.append(builder.build())
    return batches, int(ts.max())


def _run_on(loop: asyncio.AbstractEventLoop, coro):
    return asyncio.run_coroutine_threadsafe(coro, loop).result(TIMEOUT_S)


@dataclass
class Stack:
    """Everything a workload drives and every end-of-trial check reads."""

    network_server: NetworkServer
    broker: Broker
    dataport: Dataport
    inner: ShardedTSDB  # the innermost store: the reference for every check
    durable: DurableStore
    store: object  # what writers and the server see (a span proxy when traced)
    shipper: SegmentShipper
    follower: Follower
    follower_inner: ShardedTSDB
    server: QueryServer
    client: QueryClient
    loop: asyncio.AbstractEventLoop
    wal_dir: Path
    t_max: int  # newest history timestamp
    points_written: int  # through the write stack so far (workloads add theirs)
    meter: Speedometer
    scan_proxy: ScanProxy | None = None
    _thread: threading.Thread | None = None

    def run_on_loop(self, coro):
        """Run a coroutine on the stack's loop thread and wait for it."""
        return _run_on(self.loop, coro)

    def wait_follower(self) -> None:
        """Block until the follower has applied everything logged."""
        self.run_on_loop(self.shipper.wait_caught_up(timeout=TIMEOUT_S))

    def put_batch(self, batch: PointBatch) -> None:
        """One batch through the full write stack, counted."""
        self.points_written += self.store.put_batch(batch)

    def wal_bytes_per_point(self) -> float:
        return self.durable.wal_path.stat().st_size / self.points_written

    def teardown(self) -> None:
        """Stop client, server, shipper, follower and the loop thread,
        close the WAL and the shard pools, remove the WAL directory."""
        self.client.close()

        async def stop() -> None:
            await self.server.stop(timeout=10.0)
            await self.shipper.stop()
            await self.follower.stop()

        try:
            self.run_on_loop(stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self.loop.close()
            self.durable.close()
            self.inner.close()
            self.follower_inner.close()
            shutil.rmtree(self.wal_dir, ignore_errors=True)


def build(
    seed: int,
    meter: Speedometer,
    *,
    history_points: int = HISTORY_POINTS,
    tracer: Tracer | None = None,
) -> Stack:
    """Assemble the stack, bulk-load the history, return it ready.

    With a ``tracer``, each layer is handed to the next through a span
    proxy; without one the program's objects are wired to each other
    directly and no benchmark code sits on any path.  ``meter`` times
    the steps and samples the machine's speed after each.
    """
    step = meter.step

    def proxy(target, spans: dict[str, str]):
        return target if tracer is None else SpanProxy(target, tracer, spans)

    batches, t_max = history_batches(seed, history_points)
    step("generate")

    OUT_DIR.mkdir(exist_ok=True)
    wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="e2e-loop", daemon=True)
    thread.start()

    # -- write stack: WAL -> replication tee -> sharded store ------------
    inner = ShardedTSDB(SHARDS)
    log = ReplicationLog()
    replicated = ReplicatedStore(
        proxy(inner, {"put_batch": "tsdb.put_batch"}),
        proxy(log, {"append_batch": "replication.log_append"}),
    )
    durable = DurableStore(
        proxy(replicated, {"put_batch": "replication.tee"}), wal_dir / "wal.seg"
    )
    store = proxy(durable, {"put_batch": "tsdb.wal_append"})

    # -- standby: shipper -> follower over loopback tcp ------------------
    follower_inner = ShardedTSDB(SHARDS)
    follower = Follower(
        store=proxy(follower_inner, {"put_batch": "replication.apply"})
    )
    host, port = _run_on(loop, follower.start())
    shipper = SegmentShipper(log, host, port, seed=0)

    async def start_shipper() -> None:
        shipper.start()

    _run_on(loop, start_shipper())

    # -- uplink path: network server -> bridge -> broker -> dataport -----
    network_server = proxy(NetworkServer(), {"ingest": "lorawan.ingest"})
    broker = Broker() if tracer is None else SpanBroker(tracer)
    # registers itself as the network server's uplink handler
    TtnMqttBridge(network_server, broker, CITY)
    dataport = Dataport(
        broker, store, Scheduler(SimClock(t_max + 1)), batch_window_s=0
    )
    for gateway_id in GATEWAYS:
        dataport.register_gateway(gateway_id)
    for i in range(UPLINK_NODES):
        dataport.register_sensor(uplink_node(i), city=CITY)
    step("assemble")

    # -- history through the full write stack ----------------------------
    points = sum(store.put_batch(batch) for batch in batches)
    step("bulk_load", quiet=False)  # the follower is still applying
    _run_on(loop, shipper.wait_caught_up(timeout=TIMEOUT_S))
    step("follower_catchup")

    # -- serving: server + one client over loopback tcp ------------------
    scan_proxy = None if tracer is None else ScanProxy(store, tracer)
    server = QueryServer(store if scan_proxy is None else scan_proxy, port=0)
    _run_on(loop, server.start())
    client = QueryClient(*server.address, timeout=TIMEOUT_S, retries=0)
    client.connect()
    step("server_start")

    return Stack(
        network_server=network_server,
        broker=broker,
        dataport=dataport,
        inner=inner,
        durable=durable,
        store=store,
        shipper=shipper,
        follower=follower,
        follower_inner=follower_inner,
        server=server,
        client=client,
        loop=loop,
        wal_dir=wal_dir,
        t_max=t_max,
        points_written=points,
        meter=meter,
        scan_proxy=scan_proxy,
        _thread=thread,
    )
