"""What one uplink costs, as counts — not clocks.

The fixture-shaped stack from public constructors::

    NetworkServer -> TtnMqttBridge -> Broker -> Dataport(batch_window_s=0)
        -> DurableStore(ReplicatedStore(ShardedTSDB(4)))
        -> ReplicationLog -> SegmentShipper ~tcp~> Follower(ShardedTSDB(4))

with counting wrappers around the calls a steady-state uplink should
*not* repeat: a series is named once (no ``SeriesKey.make``, no
canonical-text formatting, on the writer's thread or the follower's), a
flush is framed once (one ``encode_batch``), nothing parks between the
hops on the loop (a shipped record hands the loop no task to resume:
zero ``call_soon``), acks are cumulative (fewer than records), and
waiting for the follower is an event, not a poll.
Every count is deterministic; the end state is checked as bytes.
"""

import asyncio
import sys
import threading
import time
from collections import Counter

import pytest

import repro.replication.log as log_module
from repro.dataport import Dataport, TtnMqttBridge
from repro.lorawan import (
    GatewayReception,
    Measurements,
    NetworkServer,
    Uplink,
    encode_measurements,
)
from repro.mqtt import Broker
from repro.replication import Follower, ReplicatedStore, SegmentShipper
from repro.simclock import Scheduler, SimClock
from repro.tsdb import (
    METRIC_CO2,
    DurableStore,
    PointBatch,
    SeriesKey,
    ShardedTSDB,
    dumps,
    load,
    segments,
)

CITY = "trondheim"
NODES = 10
STEADY_UPLINKS = 40
LOOP_THREAD = "uplink-costs-loop"
TIMEOUT_S = 30.0


def node_id(i: int) -> str:
    return f"ctt-u{i:03d}"


def uplink(i: int, now: int) -> tuple[Uplink, list[GatewayReception], float]:
    co2 = 400.0 + i
    payload = encode_measurements(
        Measurements(
            co2_ppm=co2, no2_ugm3=20.0, pm10_ugm3=10.0, pm25_ugm3=5.0,
            temperature_c=4.0, pressure_hpa=1013.0, humidity_pct=60.0,
            battery_v=3.7, sequence=i,
        )
    )
    up = Uplink(
        dev_eui=node_id(i % NODES), fcnt=i // NODES, payload=payload, sf=9,
        sent_at=now,
    )
    return up, [GatewayReception("gw-0", -90.0, 5.0)], co2


class Stack:
    """The write stack and its standby, the loop on its own thread."""

    def __init__(self, wal_path) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name=LOOP_THREAD, daemon=True
        )
        self.thread.start()
        self.inner = ShardedTSDB(4)
        self.replicated = ReplicatedStore(self.inner)
        self.durable = DurableStore(self.replicated, wal_path)
        self.follower = Follower(store=ShardedTSDB(4))
        host, port = self.on_loop(self.follower.start())
        self.shipper = SegmentShipper(self.replicated.log, host, port, seed=0)
        self.network_server = NetworkServer()
        broker = Broker()
        TtnMqttBridge(self.network_server, broker, CITY)
        self.dataport = Dataport(
            broker, self.durable, Scheduler(SimClock(1)), batch_window_s=0
        )
        self.dataport.register_gateway("gw-0")
        for i in range(NODES):
            self.dataport.register_sensor(node_id(i), city=CITY)

    def on_loop(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(TIMEOUT_S)

    def start_shipper(self) -> None:
        async def start() -> None:
            self.shipper.start()

        self.on_loop(start())

    def wait_follower(self) -> None:
        self.on_loop(self.shipper.wait_caught_up(timeout=TIMEOUT_S))

    def close(self) -> None:
        async def stop() -> None:
            await self.shipper.stop()
            await self.follower.stop()

        try:
            self.on_loop(stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=TIMEOUT_S)
            assert not self.thread.is_alive()
            self.loop.close()
            self.durable.close()


@pytest.fixture
def stack(tmp_path):
    s = Stack(tmp_path / "wal.seg")
    try:
        yield s
    finally:
        s.close()


def counted(calls: Counter, name: str, fn):
    """``fn`` counting its calls per (name, calling thread)."""

    def wrapper(*args, **kwargs):
        calls[name, threading.current_thread().name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_steady_state_uplink_costs(stack, monkeypatch):
    calls: Counter = Counter()
    main = threading.current_thread().name
    # ``log_module.encode_batch`` is where a second, log-side encode
    # would be looked up; the log no longer has the name at all.
    encode_batch = counted(calls, "encode_batch", segments.encode_batch)
    for module in (segments, log_module):
        monkeypatch.setattr(module, "encode_batch", encode_batch, raising=False)
    monkeypatch.setattr(
        SeriesKey, "make", classmethod(counted(calls, "make", SeriesKey.make.__func__))
    )
    monkeypatch.setattr(
        SeriesKey, "_format", counted(calls, "format", SeriesKey._format)
    )
    co2_key = [
        SeriesKey.make(METRIC_CO2, {"node": node_id(i), "city": CITY})
        for i in range(NODES)
    ]

    # Warm-up: one round, logged before the shipper connects — so the
    # whole round ships in one write and is acknowledged by one ack.
    sent = []
    for i in range(NODES):
        up, receptions, co2 = uplink(i, now=100 + i)
        stack.network_server.ingest(up, receptions, 100 + i)
        sent.append((i % NODES, 100 + i, co2))
        # (also the first and only formatting of this test's own keys)
        assert stack.durable.series_latest(co2_key[i]) == (100 + i, co2)
    stack.start_shipper()
    stack.wait_follower()

    # What the loop is asked to run later: a stream reader or a parked
    # task costs one ``call_soon`` per wake-up, per hop (the log's own
    # wake-up arrives through ``call_soon_threadsafe``, socket readiness
    # through the selector — neither passes here).
    monkeypatch.setattr(
        stack.loop, "call_soon", counted(calls, "call_soon", stack.loop.call_soon)
    )

    calls.clear()
    flushes = stack.dataport.stats.batch_flushes
    for i in range(NODES, NODES + STEADY_UPLINKS):
        up, receptions, co2 = uplink(i, now=100 + i)
        stack.network_server.ingest(up, receptions, 100 + i)
        sent.append((i % NODES, 100 + i, co2))
        # Read back through the outer store, as a dashboard would.
        assert stack.durable.series_latest(co2_key[i % NODES]) == (100 + i, co2)
    # Watched from this thread, so that no coroutine runs on the loop
    # while the records cross it.
    deadline = time.monotonic() + TIMEOUT_S
    while stack.shipper.lag_records and time.monotonic() < deadline:
        time.sleep(0.001)
    steady = Counter(calls)
    stack.wait_follower()

    flushed = stack.dataport.stats.batch_flushes - flushes
    assert flushed == STEADY_UPLINKS
    # Framed once: the journal's block is the log's record.
    assert steady["encode_batch", main] == flushed
    assert steady["encode_batch", LOOP_THREAD] == 0
    # Named once: nothing is validated or formatted again, on either side.
    assert steady["make", main] == 0
    assert steady["make", LOOP_THREAD] == 0
    assert steady["format", main] == 0
    assert steady["format", LOOP_THREAD] == 0

    # Shipped, applied and acknowledged inside the loop's own callbacks.
    assert stack.shipper.lag_records == 0
    assert steady["call_soon", LOOP_THREAD] == 0
    assert steady["call_soon", main] == 0

    # Cumulative acks: the preloaded round alone was NODES records, one ack.
    shipped = stack.shipper.stats
    assert shipped.records_shipped == NODES + STEADY_UPLINKS
    assert shipped.records_resent == 0
    assert shipped.acks_received < shipped.records_shipped
    assert stack.follower.stats.records_applied == NODES + STEADY_UPLINKS

    # Bytes: standby ≡ primary ≡ WAL replay, and the last uplink of
    # every node is what the store returns.
    primary = dumps(stack.inner, format="binary")
    assert dumps(stack.follower.store, format="binary") == primary
    replayed = ShardedTSDB(4)
    load(stack.durable.wal_path, into=replayed)
    assert dumps(replayed, format="binary") == primary
    for node, now, co2 in sent[-NODES:]:
        assert stack.follower.store.series_latest(co2_key[node]) == (now, co2)


def test_wait_caught_up_waits_on_acks_not_on_a_poll(stack, monkeypatch):
    stack.start_shipper()
    polls = []
    real_sleep = asyncio.sleep

    async def watched_sleep(delay, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "wait_caught_up":
            polls.append(delay)
        return await real_sleep(delay, *args, **kwargs)

    monkeypatch.setattr(asyncio, "sleep", watched_sleep)

    async def write_then_wait() -> int:
        # Written on the loop itself: the follower cannot have acked
        # before the wait starts, so the wait really has to wait.
        stack.durable.put_batch(
            PointBatch.for_series("air.co2.ppm", [1, 2, 3], [1.0, 2.0, 3.0])
        )
        assert stack.shipper.lag_records == 1
        await stack.shipper.wait_caught_up(timeout=TIMEOUT_S)
        return stack.shipper.lag_records

    assert stack.on_loop(write_then_wait()) == 0
    assert polls == []
    assert stack.follower.applied_seq == 1
