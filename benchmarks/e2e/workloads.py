"""The four workloads: what one journey is, how it is checked, and —
in the traced trial — what each layer on its path cost.

Every workload is one closed loop on the calling thread: the next
journey starts when the previous one has returned.  Inputs are made
from the seed before the first timed journey; the program sees only
the inputs.  A journey that answers wrongly is counted as failed; a
reply that differs from the reference computed on the innermost store
raises :class:`CheckFailed`, which fails the whole trial.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass, field
from statistics import fmean, median
from typing import Callable

import numpy as np

from repro.dataport import UPLINK_FILTER, UPLINK_TOPIC_FMT
from repro.lorawan import (
    GatewayReception,
    Measurements,
    ReceivedUplink,
    Uplink,
    decode_measurements,
    encode_measurements,
    uplink_from_json,
    uplink_to_json,
)
from repro.mqtt import Broker
from repro.serve import CachingStore, IncrementalRefresher
from repro.tsdb import METRIC_CO2, BatchBuilder, PointBatch, Query, SeriesKey, wire

from .calibrate import Speedometer
from .fixture import (
    CADENCE_S,
    CITY,
    GATEWAYS,
    HISTORY_SERIES,
    METRICS,
    UPLINK_NODES,
    Stack,
    series_tags,
    uplink_node,
)
from .spans import Tracer, in_us

#: Points the dataport writes per uplink (seven air/weather metrics + battery).
POINTS_PER_UPLINK = 8
#: Dashboards verify the last reply and one in this many against the
#: innermost store.
VERIFY_EVERY = 16
#: Dashboard warm-up journeys (the uplink warm-up is one round of nodes).
WARMUP_JOURNEYS = 3
#: Staged-replay cycles: microsecond stages, the ~25 ms cycle of a
#: dashboard reply's stages, and the ~50 ms write-then-refresh.
UPLINK_REPLAYS = 200
DASHBOARD_REPLAYS = 50
REFRESH_REPLAYS = 15


#: Called once the warm-up is done, just before the first timed journey.
Ready = Callable[[], None]


class CheckFailed(AssertionError):
    """An output differed from its reference: the trial has no numbers."""


@dataclass
class Measured:
    """What one trial's timed journeys produced."""

    #: the samples the latency percentiles pool
    journey_ns: list[int]
    attempted: int
    failed: int
    #: what ``journeys_per_s`` divides the journey count by
    busy_ns: int
    #: WAL file size over points written through the stack, taken when
    #: the last journey has landed (staged replays may write more)
    wal_bytes_per_point: float
    #: counts from the program's own stats(); they repeat exactly
    counts: dict[str, float] = field(default_factory=dict)
    #: per-layer times of the traced trial (empty when untraced)
    layers: dict[str, float] = field(default_factory=dict)
    #: the layer metrics whose sum should explain the journey
    budget: tuple[str, ...] = ()


def replay_in_turn(
    stages: dict[str, Callable[[], object]], repeats: int, meter: Speedometer
) -> dict[str, float]:
    """Staged replay: push the same inputs through each stage in turn,
    ``repeats`` times over, and return each stage's median seconds.
    Running the stages in the journey's order, once per cycle, leaves
    each one the caches its predecessor left — a hot loop over one
    stage alone reads a fifth too fast on the half-megabyte replies."""
    samples: dict[str, list[int]] = {name: [] for name in stages}
    for _ in range(repeats):
        meter.tick()
        for name, stage in stages.items():
            t0 = time.perf_counter_ns()
            stage()
            samples[name].append(time.perf_counter_ns() - t0)
    return {name: median(ns) / 1e9 for name, ns in samples.items()}


# ---------------------------------------------------------------------------
# uplink_stream
# ---------------------------------------------------------------------------
def _uplink_inputs(seed: int, t_max: int, count: int):
    """``count`` uplinks, round-robin over the nodes, one second apart:
    ``(uplink, receptions, now, co2 series key, decoded co2)``."""
    rng = np.random.default_rng([seed, 1])
    co2 = rng.integers(380, 1200, size=count)
    no2 = rng.uniform(5.0, 80.0, size=count)
    pm10 = rng.uniform(2.0, 60.0, size=count)
    temp = rng.uniform(-15.0, 25.0, size=count)
    rssi = rng.uniform(-118.0, -70.0, size=(count, len(GATEWAYS)))
    snr = rng.uniform(-12.0, 9.0, size=(count, len(GATEWAYS)))
    keys = [
        SeriesKey.make(METRIC_CO2, {"node": uplink_node(n), "city": CITY})
        for n in range(UPLINK_NODES)
    ]
    inputs = []
    for i in range(count):
        node = i % UPLINK_NODES
        now = t_max + 1 + i
        payload = encode_measurements(
            Measurements(
                co2_ppm=float(co2[i]),
                no2_ugm3=float(no2[i]),
                pm10_ugm3=float(pm10[i]),
                pm25_ugm3=float(pm10[i]) / 2.0,
                temperature_c=float(temp[i]),
                pressure_hpa=1013.0,
                humidity_pct=60.0,
                battery_v=3.7,
                sequence=i,
            )
        )
        uplink = Uplink(
            dev_eui=uplink_node(node),
            fcnt=i // UPLINK_NODES,
            payload=payload,
            sf=9,
            sent_at=now,
        )
        receptions = [
            GatewayReception(gw, float(rssi[i, g]), float(snr[i, g]))
            for g, gw in enumerate(GATEWAYS)
        ]
        inputs.append((uplink, receptions, now, keys[node], float(co2[i])))
    return inputs


def uplink_stream(
    stack: Stack, seed: int, journeys: int, tracer: Tracer | None, ready: Ready
) -> Measured:
    """``NetworkServer.ingest`` -> bridge JSON -> ``Broker.publish`` ->
    dataport decode + twins + 8-point flush -> WAL -> store ->
    replication log, until ``series_latest`` on the outer store returns
    the uplink's timestamp and decoded CO2; one round of the nodes at a
    time, each round ending when the follower has applied it."""
    inputs = _uplink_inputs(seed, stack.t_max, UPLINK_NODES + journeys)
    ingest = stack.network_server.ingest
    store = stack.store
    meter = stack.meter
    meter.step("inputs")

    def read_back(key: SeriesKey):
        # looked up per call: the wrappers' delegation is part of the hop
        return store.series_latest(key)

    if tracer is not None:
        read_back = tracer.timed("tsdb.read_back", read_back)

    # Warm-up: one round, so every node's series and twins exist.
    for uplink, receptions, now, _, _ in inputs[:UPLINK_NODES]:
        ingest(uplink, receptions, now)
    stack.wait_follower()
    ready()

    # One round of the nodes at a time, and the follower drains after
    # each.  Every append to the replication log wakes the shipper on
    # the loop thread, and whether it wins the GIL from the writer there
    # and then (the uplink's own replication runs inside its journey:
    # median 0.57 ms) or a few journeys later (0.36 ms, and one journey
    # in ten takes the lot) is a race that goes one way for an hour and
    # the other way the next.  What a round takes, first ingest until
    # the follower has applied its last record, is the same either way,
    # so that is what is timed: the percentiles pool each round's time
    # per uplink.  Rounds also bound the backlog, and between them the
    # speedometer's unit runs beside nothing.
    round_ns: list[int] = []
    queryable_ns: list[int] = []
    failed = 0
    backlog_max = 0
    busy_ns = drain_ns = 0
    timed = inputs[UPLINK_NODES:]
    for lo in range(0, len(timed), UPLINK_NODES):
        meter.sample()
        this_round = timed[lo:lo + UPLINK_NODES]
        first = time.perf_counter_ns()
        for j, (uplink, receptions, now, key, co2) in enumerate(this_round, lo):
            if tracer is not None:
                tracer.journey = j
            t0 = time.perf_counter_ns()
            ingest(uplink, receptions, now)
            got = read_back(key)
            queryable_ns.append(time.perf_counter_ns() - t0)
            if got != (now, co2):
                failed += 1
        written = time.perf_counter_ns()
        backlog_max = max(backlog_max, stack.shipper.lag_records)
        stack.wait_follower()
        applied = time.perf_counter_ns()
        round_ns.append((applied - first) // len(this_round))
        busy_ns += applied - first
        drain_ns += applied - written
    meter.sample()

    stats = stack.dataport.stats
    stack.points_written += stats.points_written
    if stats.points_written != POINTS_PER_UPLINK * len(inputs):
        raise CheckFailed(
            f"dataport wrote {stats.points_written} points for {len(inputs)} uplinks"
        )
    measured = Measured(
        journey_ns=round_ns,
        attempted=len(timed),
        failed=failed,
        busy_ns=busy_ns,
        wal_bytes_per_point=stack.wal_bytes_per_point(),
        counts={
            "dataport.points_per_flush": stats.points_written / stats.batch_flushes,
            "mqtt.redelivered": stack.broker.stats()["inflight"],
            "lorawan.replays_rejected": stack.network_server.stats()[
                "replays_rejected"
            ],
        },
    )
    if tracer is not None:
        tracer.journey = -1
        measured.layers = _uplink_layers(tracer, inputs[-1], meter)
        measured.layers["journey_ms_queryable_p50"] = median(queryable_ns) / 1e6
        measured.layers["replication.drain_s"] = drain_ns / 1e9
        measured.layers["replication.drain_us"] = drain_ns / 1e3 / len(timed)
        measured.layers["replication.backlog_max_records"] = backlog_max
        measured.budget = (
            "lorawan.ingest_us", "lorawan.codec_us", "mqtt.publish_us",
            "dataport.handle_us", "tsdb.wal_append_us", "replication.tee_us",
            "tsdb.put_batch_us", "tsdb.read_back_us", "replication.drain_us",
        )
    return measured


def _uplink_layers(tracer: Tracer, last_input, meter: Speedometer) -> dict[str, float]:
    """Spans for the calls the benchmark can stand in front of; staged
    replay on the last journey's inputs for the pure functions inside
    them, which are then subtracted from the span they ran in."""
    uplink, receptions, now, _, _ = last_input
    received = ReceivedUplink(uplink, tuple(receptions), now)
    text = uplink_to_json(received)
    # Routing alone: the same two sessions, a subscriber that does nothing.
    broker = Broker()
    broker.connect("ttn-bridge")
    broker.connect("dataport").subscribe(UPLINK_FILTER, lambda msg: None, qos=1)
    topic = UPLINK_TOPIC_FMT.format(city=CITY, dev_eui=uplink.dev_eui)

    stage_s = replay_in_turn(
        {
            "to_json": lambda: uplink_to_json(received),
            "routing": lambda: broker.publish(topic, text, qos=1),
            "from_json": lambda: uplink_from_json(text),
            "decode": lambda: decode_measurements(uplink.payload),
        },
        UPLINK_REPLAYS,
        meter,
    )
    to_json_us = stage_s["to_json"] * 1e6
    routing_us = stage_s["routing"] * 1e6
    in_dataport_us = (stage_s["from_json"] + stage_s["decode"]) * 1e6
    # Means, not medians: the wait for the GIL while the shipper ships
    # lands in whichever span gave the GIL up, in some journeys and not
    # in others, and only means add up to the time a round takes.
    self_us = in_us(tracer.self_ns(), fmean)
    span_us = in_us(tracer.span_ns(), fmean)

    return {
        # the bridge's JSON encode runs inside ingest, outside publish
        "lorawan.ingest_us": self_us["lorawan.ingest"] - to_json_us,
        "lorawan.codec_us": to_json_us + in_dataport_us,
        "mqtt.publish_us": routing_us,
        "dataport.handle_us": (
            span_us["mqtt.publish"]
            - in_dataport_us
            - routing_us
            - span_us["tsdb.wal_append"]
        ),
        **_write_layers(self_us),
        "tsdb.read_back_us": self_us["tsdb.read_back"],
        "replication.apply_us": span_us["replication.apply"],
    }


def _write_layers(self_us: dict[str, float]) -> dict[str, float]:
    """Self times of the three store layers one ``put_batch`` crosses."""
    return {
        "tsdb.wal_append_us": self_us["tsdb.wal_append"],
        "replication.tee_us": (
            self_us["replication.tee"] + self_us["replication.log_append"]
        ),
        "tsdb.put_batch_us": self_us["tsdb.put_batch"],
    }


# ---------------------------------------------------------------------------
# dashboards
# ---------------------------------------------------------------------------
def panels(start: int, end: int) -> list[Query]:
    """The 12-panel wall dashboard of benchmarks/test_serve_throughput.py."""
    out: list[Query] = []
    city = {"city": CITY}
    for metric in METRICS:
        out.append(Query(metric, start, end, tags=city, downsample="30m-avg"))
        out.append(
            Query(metric, start, end, tags=city, aggregator="dev", downsample="1h-max")
        )
        out.append(
            Query(metric, start, end, tags=city, downsample="1h-avg",
                  group_by=("node",))
        )
    return out


def _minute_batch(rng: np.random.Generator, t: int) -> PointBatch:
    """One new point for every history series at timestamp ``t``."""
    builder = BatchBuilder()
    ts = np.array([t], np.int64)
    values = rng.normal(400.0, 25.0, size=HISTORY_SERIES)
    for s in range(HISTORY_SERIES):
        metric, tags = series_tags(s)
        builder.add_series(metric, ts, values[s:s + 1], tags)
    return builder.build()


def dashboard_cold(stack, seed, journeys, tracer, ready) -> Measured:
    """Window start shifted by a minute per journey: every panel misses
    the result cache, and the LRU (capacity 128) evicts."""
    requests = [
        (None, panels(CADENCE_S * (j + 1), stack.t_max))
        for j in range(WARMUP_JOURNEYS + journeys)
    ]
    measured = _dashboard(stack, requests, tracer, ready)
    measured.budget = (*_WIRE_BUDGET, "tsdb.plan_scan_ms")
    return measured


def dashboard_cached(stack, seed, journeys, tracer, ready) -> Measured:
    """The identical request repeated: every panel hits the cache."""
    request = (None, panels(0, stack.t_max))
    measured = _dashboard(
        stack, [request] * (WARMUP_JOURNEYS + journeys), tracer, ready,
        identical=True,
    )
    measured.budget = (*_WIRE_BUDGET, "serve.cache_lookup_us")
    return measured


def dashboard_live(stack, seed, journeys, tracer, ready) -> Measured:
    """Each journey lands one new minute through the full write stack,
    then refreshes the sliding window with ``refresh=True``."""
    rng = np.random.default_rng([seed, 2])
    requests = []
    for j in range(WARMUP_JOURNEYS + journeys):
        now = stack.t_max + CADENCE_S * (j + 1)
        requests.append((_minute_batch(rng, now), panels(0, now)))
    measured = _dashboard(stack, requests, tracer, ready, refresh=True)
    measured.budget = (
        *_WIRE_BUDGET, "serve.refresh_ms", "tsdb.wal_append_us",
        "replication.tee_us", "tsdb.put_batch_us",
    )
    return measured


#: The hops every dashboard journey pays, whatever the server executes.
_WIRE_BUDGET = (
    "serve.client_encode_us", "serve.request_decode_us",
    "tsdb.encode_response_ms", "serve.json_dumps_ms",
    "serve.client_decode_ms", "serve.transport_ms",
)


def _dashboard(
    stack: Stack,
    requests: list[tuple[PointBatch | None, list[Query]]],
    tracer: Tracer | None,
    ready: Ready,
    *,
    refresh: bool = False,
    identical: bool = False,
) -> Measured:
    """The closed loop shared by the three dashboard workloads: write
    (if the request carries a batch), request, time, then check the
    reply outside the timed span and before the next write."""
    client = stack.client
    meter = stack.meter
    meter.step("inputs")

    def journey(batch, queries) -> tuple[int, dict]:
        t0 = time.perf_counter_ns()
        if batch is not None:
            stack.put_batch(batch)
        reply = client.request(queries, refresh=refresh)
        return time.perf_counter_ns() - t0, reply

    for batch, queries in requests[:WARMUP_JOURNEYS]:
        journey(batch, queries)
    before = stack.server.stats()
    if stack.scan_proxy is not None:
        stack.scan_proxy.reset()
    ready()

    journey_ns: list[int] = []
    failed = 0
    first_reply = None
    lane_depth_max = 0
    timed = requests[WARMUP_JOURNEYS:]
    for j, (batch, queries) in enumerate(timed):
        meter.tick()
        if tracer is not None:
            tracer.journey = j
        ns, reply = journey(batch, queries)
        journey_ns.append(ns)
        reply.pop("id", None)
        if "error" in reply:
            failed += 1
            continue
        if identical and first_reply is None:
            first_reply = reply
        if j == len(timed) - 1 or (
            not identical and j % VERIFY_EVERY == VERIFY_EVERY - 1
        ):
            _verify(stack, queries, reply, series_only=refresh, journey=j)
        elif identical and reply != first_reply:
            # equal to the first, and the last is verified: so are all
            raise CheckFailed(f"cached reply {j} differs from the first")
        if tracer is not None:
            lane = stack.server.stats()["tenants"]["public"]
            lane_depth_max = max(lane_depth_max, lane["depth"])
    meter.sample()

    after = stack.server.stats()
    cache = {k: after["cache"][k] - before["cache"][k] for k in after["cache"]}
    runs = {k: after["refresh"][k] - before["refresh"][k] for k in after["refresh"]}
    lookups = cache["hits"] + cache["misses"]
    refreshes = runs["full_runs"] + runs["incremental_runs"] + runs["cache_only_runs"]
    measured = Measured(
        journey_ns=journey_ns,
        attempted=len(journey_ns),
        failed=failed,
        busy_ns=sum(journey_ns),
        wal_bytes_per_point=stack.wal_bytes_per_point(),
        counts={
            "serve.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "serve.cache_evictions": cache["evicted"],
            "serve.refresh_incremental_ratio": (
                runs["incremental_runs"] / refreshes if refreshes else 0.0
            ),
            "serve.lane_dropped": after["tenants"]["public"]["dropped"],
        },
    )
    if tracer is not None:
        tracer.journey = -1
        measured.layers = _dashboard_layers(stack, tracer, requests[-1][1], refresh)
        measured.layers["serve.lane_depth_max"] = lane_depth_max
    return measured


def _verify(stack, queries, reply, *, series_only: bool, journey: int) -> None:
    """The reply must equal the innermost store's own answer, encoded.
    A refreshed reply reports only the delta's ``scannedPoints`` by
    design, so there the series alone are compared."""
    want = wire.encode_response(stack.inner.run_many(queries))["results"]
    got = reply["results"]
    if series_only:
        want = [r["series"] for r in want]
        got = [r["series"] for r in got]
    if got != want:
        raise CheckFailed(f"reply {journey} differs from run_many on the inner store")


def _dashboard_layers(
    stack: Stack, tracer: Tracer, queries: list[Query], refresh: bool
) -> dict[str, float]:
    """Staged replay of the last journey's request and reply through
    each public function on its path, in the order the journey runs
    them; spans for the store calls under the server."""
    envelope = {**wire.encode_request(queries), "id": 1}
    request_line = json.dumps(envelope, allow_nan=False).encode() + b"\n"
    results = stack.inner.run_many(queries)
    response = wire.encode_response(results)
    reply_line = json.dumps(response, allow_nan=False).encode() + b"\n"

    all_hit = CachingStore(stack.store)
    all_hit.run_many(queries)

    stage_s = replay_in_turn(
        {
            "serve.client_encode_us": lambda: json.dumps(
                {**wire.encode_request(queries), "id": 1}, allow_nan=False
            ).encode(),
            "serve.request_decode_us": lambda: _decode_request_line(request_line),
            "serve.cache_lookup_us": lambda: all_hit.run_many(queries),
            "tsdb.encode_response_ms": lambda: wire.encode_response(results),
            "serve.json_dumps_ms": lambda: json.dumps(
                response, allow_nan=False
            ).encode(),
            "serve.client_decode_ms": lambda: json.loads(reply_line),
        },
        DASHBOARD_REPLAYS,
        stack.meter,
    )
    scan = stack.scan_proxy
    self_us = in_us(tracer.self_ns(), median)
    layers = {
        **{
            name: seconds * (1e6 if name.endswith("_us") else 1e3)
            for name, seconds in stage_s.items()
        },
        "tsdb.plan_scan_ms": self_us["tsdb.plan_scan"] / 1e3,
        "tsdb.plan_scan_calls": scan.calls,
        "tsdb.scanned_per_returned": (
            scan.scanned_points / scan.returned_points if scan.returned_points else 0.0
        ),
        "serve.reply_kb": len(reply_line) / 1024,
        "serve.transport_ms": _transport_s(stack, request_line, reply_line) * 1e3,
    }
    if refresh:
        layers.update(_write_layers(self_us))
        layers["serve.refresh_ms"] = _refresh_s(stack, queries[0].end) * 1e3
    return layers


def _decode_request_line(line: bytes) -> list:
    """What the server does to a request line before it executes it."""
    payload = json.loads(line)
    payload.pop("id")
    return wire.decode_request(payload)


def _transport_s(stack: Stack, request_line: bytes, reply_line: bytes) -> float:
    """What the bytes alone cost: the journey's request line up and its
    reply line down, through a stand-in server on the program's loop
    thread that hops to the executor like ``QueryServer`` does but
    parses, runs and encodes nothing."""

    async def handle(reader, writer) -> None:
        loop = asyncio.get_running_loop()
        try:
            while await reader.readline():
                await loop.run_in_executor(None, len, reply_line)
                writer.write(reply_line)
                await writer.drain()
        finally:
            writer.close()

    server = stack.run_on_loop(asyncio.start_server(handle, "127.0.0.1", 0))
    try:
        with socket.create_connection(server.sockets[0].getsockname()[:2]) as sock:
            with sock.makefile("rb") as reader:

                def round_trip() -> None:
                    sock.sendall(request_line)
                    reader.readline()

                return replay_in_turn(
                    {"round_trip": round_trip}, DASHBOARD_REPLAYS, stack.meter
                )["round_trip"]
    finally:

        async def close() -> None:
            server.close()
            await server.wait_closed()

        stack.run_on_loop(close())


def _refresh_s(stack: Stack, end: int) -> float:
    """``IncrementalRefresher.run`` x 12 after a write: a private
    refresher over the stack's store, one more minute landed (untimed)
    before each timed refresh."""
    refresher = IncrementalRefresher(CachingStore(stack.store))
    rng = np.random.default_rng(0)
    for q in panels(0, end):
        refresher.run(q)
    samples = []
    for i in range(REFRESH_REPLAYS):
        now = end + CADENCE_S * (i + 1)
        stack.put_batch(_minute_batch(rng, now))
        queries = panels(0, now)
        stack.meter.tick()
        t0 = time.perf_counter_ns()
        for q in queries:
            refresher.run(q)
        samples.append(time.perf_counter_ns() - t0)
    return median(samples) / 1e9


WORKLOADS: dict[str, Callable[[Stack, int, int, Tracer | None, Ready], Measured]] = {
    "uplink_stream": uplink_stream,
    "dashboard_cold": dashboard_cold,
    "dashboard_cached": dashboard_cached,
    "dashboard_live": dashboard_live,
}
