"""The dataport application: Fig. 2's protocol pipeline, assembled.

Wires the numbered hops of the paper's protocol diagram:

1. sensors → LoRaWAN → gateways            (radio plane, upstream of here)
2. gateways → network server (TTN)          (upstream of here)
3. TTN → MQTT broker                        (:class:`TtnMqttBridge`)
4. MQTT → dataport                          (subscription below)
5. dataport → databases                     (TSDB writer)
6. dataport → alarms                        (twin hierarchy)
7. dataport → CTT network visualization     (:meth:`network_snapshot`)
8. watchdog → dataport (IP ping)            (:class:`~.watchdog.Watchdog`)

The dataport also answers REST-style status queries (the "CTT Dataport"
HTTP box in the figure) via plain methods returning JSON-able dicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..lorawan import (
    NetworkServer,
    ReceivedUplink,
    decode_measurements,
    uplink_from_json,
    uplink_to_json,
)
from ..mqtt import Broker, Client
from ..simclock import Scheduler
from ..tsdb import (
    METRIC_BATTERY,
    METRIC_CO2,
    METRIC_HUMIDITY,
    METRIC_NO2,
    METRIC_PM10,
    METRIC_PM25,
    METRIC_PRESSURE,
    METRIC_TEMPERATURE,
    BatchBuilder,
    TimeSeriesStore,
)
from .actors import ActorSystem
from .alarms import AlarmLog, Severity
from .twins import (
    BackendTwin,
    FleetSupervisor,
    GatewayHeard,
    TwinConfig,
    UplinkObserved,
)

#: MQTT topic layout mirroring TTN's application topics.
UPLINK_TOPIC_FMT = "ctt/{city}/devices/{dev_eui}/up"
UPLINK_FILTER = "ctt/+/devices/+/up"


@dataclass
class DataportStats:
    uplinks_processed: int = 0
    decode_errors: int = 0
    points_written: int = 0
    batch_flushes: int = 0


class BatchingTsdbWriter:
    """Hop 5 writer: accumulates decoded measurements, flushes columnar.

    Points buffer in one :class:`~repro.tsdb.BatchBuilder` for the
    writer's lifetime (series keys interned once per series, not once
    per flush; values in growable columns) and reach the
    database as one :meth:`~repro.tsdb.TSDB.put_batch` per flush —
    either when the dataport's scheduler tick fires, or when the buffer
    hits ``max_pending`` under burst load.  ``db`` is any
    :class:`~repro.tsdb.TimeSeriesStore` — the single-process
    :class:`~repro.tsdb.TSDB` or a :class:`~repro.tsdb.ShardedTSDB`
    (the batch boundary is exactly the shard-routing boundary).

    The writer mutates the store it is handed and nothing else: for a
    write-ahead log, hand it a :class:`~repro.tsdb.tier.DurableStore`,
    whose ``put_batch`` appends the batch block to the journal *before*
    the wrapped store sees it, so a crash between the two replays
    losslessly.
    """

    def __init__(
        self,
        db: TimeSeriesStore,
        *,
        max_pending: int = 10_000,
        on_flush=None,
    ) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.db = db
        self.max_pending = max_pending
        self._builder = BatchBuilder()
        self._on_flush = on_flush
        self.flushes = 0
        self.written = 0

    @property
    def pending(self) -> int:
        """Points buffered but not yet visible in the database."""
        return len(self._builder)

    def add(self, metric: str, timestamp: int, value: float, tags) -> None:
        self._builder.add(metric, timestamp, value, tags)
        if len(self._builder) >= self.max_pending:
            self.flush()

    def add_series(self, metric: str, timestamps, values, tags=None) -> None:
        """Columnar add: one series' parallel timestamp/value columns."""
        self._builder.add_series(metric, timestamps, values, tags)
        if len(self._builder) >= self.max_pending:
            self.flush()

    def flush(self) -> int:
        """Write all buffered points as one batch; returns points written.

        The builder is only cleared once ``put_batch`` succeeds, so a
        failed write (a journaling store's disk full, say) keeps the
        points buffered and a later flush() retries them — replay stays
        correct because re-appending the same rows is last-write-wins
        idempotent."""
        if not len(self._builder):
            return 0
        batch = self._builder.build(clear=False)
        n = self.db.put_batch(batch)
        self._builder.clear()
        self.flushes += 1
        self.written += n
        if self._on_flush is not None:
            self._on_flush(n)
        return n


class TtnMqttBridge:
    """Hop 3: republishes network-server uplinks onto MQTT (as TTN does)."""

    def __init__(
        self, network_server: NetworkServer, broker: Broker, city: str
    ) -> None:
        self.city = city
        self._client = broker.connect(f"ttn-bridge-{city}")
        network_server.on_uplink(self._publish)
        self.published = 0

    def _publish(self, received: ReceivedUplink) -> None:
        topic = UPLINK_TOPIC_FMT.format(
            city=self.city, dev_eui=received.uplink.dev_eui
        )
        self._client.publish(topic, uplink_to_json(received), qos=1)
        self.published += 1


class Dataport:
    """Hops 4-7: MQTT → twins → TSDB → alarms → status APIs."""

    #: Mapping from decoded payload fields to TSDB metrics.
    METRIC_MAP = {
        "co2_ppm": METRIC_CO2,
        "no2_ugm3": METRIC_NO2,
        "pm10_ugm3": METRIC_PM10,
        "pm25_ugm3": METRIC_PM25,
        "temperature_c": METRIC_TEMPERATURE,
        "pressure_hpa": METRIC_PRESSURE,
        "humidity_pct": METRIC_HUMIDITY,
    }

    def __init__(
        self,
        broker: Broker,
        db: TimeSeriesStore,
        scheduler: Scheduler,
        *,
        config: TwinConfig | None = None,
        node_locations: dict[str, tuple[float, float]] | None = None,
        node_city: dict[str, str] | None = None,
        batch_window_s: int = 0,
        max_pending_points: int = 10_000,
    ) -> None:
        self.db = db
        self.config = config or TwinConfig()
        self.alarms = AlarmLog()
        self.system = ActorSystem(scheduler)
        self.stats = DataportStats()
        self.healthy = True  # flipped by failure-injection tests
        self.node_locations = dict(node_locations or {})
        self.node_city = dict(node_city or {})
        # Hop 5 write path: with batch_window_s == 0 every uplink flushes
        # its (columnar) batch immediately, so points are visible to
        # queries as soon as the uplink is processed; with a positive
        # window, uplinks accumulate and flush once per scheduler tick.
        self.writer = BatchingTsdbWriter(
            db, max_pending=max_pending_points, on_flush=self._record_flush
        )
        self.batch_window_s = int(batch_window_s)
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.batch_window_s > 0:
            scheduler.call_every(
                self.batch_window_s, lambda now: self.flush_writes()
            )

        self._supervisor_ref = self.system.spawn(
            lambda: FleetSupervisor(self.config, self.alarms), "fleet"
        )
        self._backend_ref = self.system.spawn(
            lambda: BackendTwin(self.alarms), "backend"
        )
        self._client: Client = broker.connect("dataport")
        self._client.subscribe(UPLINK_FILTER, self._on_mqtt, qos=1)

    # -- twin management ---------------------------------------------------
    @property
    def fleet(self) -> FleetSupervisor:
        actor = self.system.actor_instance(self._supervisor_ref)
        assert isinstance(actor, FleetSupervisor)
        return actor

    def register_sensor(
        self,
        node_id: str,
        location: tuple[float, float] | None = None,
        city: str | None = None,
    ) -> None:
        self.fleet.register_sensor(node_id)
        if location is not None:
            self.node_locations[node_id] = location
        if city is not None:
            self.node_city[node_id] = city

    def register_gateway(
        self, gateway_id: str, location: tuple[float, float] | None = None
    ) -> None:
        self.fleet.register_gateway(gateway_id)
        if location is not None:
            self.node_locations[gateway_id] = location

    # -- hop 4: MQTT ingestion ----------------------------------------------
    def _on_mqtt(self, message) -> None:
        if not self.healthy:
            return
        try:
            received = uplink_from_json(message.text())
            measurements = decode_measurements(received.uplink.payload)
        except Exception:
            self.stats.decode_errors += 1
            return
        self.stats.uplinks_processed += 1
        node_id = received.uplink.dev_eui
        city = self.node_city.get(node_id)
        if city is None:
            city = message.topic.split("/")[1]

        # Hop 6: feed the twin hierarchy.
        fleet = self.fleet
        sensor_ref = fleet.sensor_refs.get(node_id)
        if sensor_ref is None:
            sensor_ref = fleet.register_sensor(node_id)
            self.node_city.setdefault(node_id, city)
        sensor_ref.tell(UplinkObserved(node_id, received, measurements))
        for reception in received.receptions:
            gw_ref = fleet.gateway_refs.get(reception.gateway_id)
            if gw_ref is None:
                gw_ref = fleet.register_gateway(reception.gateway_id)
            gw_ref.tell(
                GatewayHeard(
                    reception.gateway_id,
                    received.received_at,
                    reception.rssi_dbm,
                )
            )
        self._backend_ref.tell(
            BackendTwin.Heartbeat("ttn", received.received_at)
        )
        self._backend_ref.tell(
            BackendTwin.Heartbeat("mqtt", received.received_at)
        )

        # Hop 5: buffer for the columnar TSDB write path.
        tags = {"node": node_id, "city": city}
        ts = received.received_at
        for attr, metric in self.METRIC_MAP.items():
            self.writer.add(metric, ts, getattr(measurements, attr), tags)
        self.writer.add(METRIC_BATTERY, ts, measurements.battery_v, tags)
        if self.batch_window_s == 0:
            self.flush_writes()

    def _record_flush(self, n: int) -> None:
        self.stats.points_written += n
        self.stats.batch_flushes += 1

    def flush_writes(self) -> int:
        """Flush buffered points to the TSDB; returns points written."""
        return self.writer.flush()

    # -- hop 8: watchdog ping target -----------------------------------------
    def ping(self) -> bool:
        """Health endpoint: True while the ingestion path is alive."""
        return self.healthy

    # -- hop 7 + REST API ------------------------------------------------------
    def sensor_status(self, node_id: str) -> dict | None:
        ref = self.fleet.sensor_refs.get(node_id)
        if ref is None:
            return None
        twin = self.system.actor_instance(ref)
        return twin.status() if twin is not None else None

    def gateway_status(self, gateway_id: str) -> dict | None:
        ref = self.fleet.gateway_refs.get(gateway_id)
        if ref is None:
            return None
        twin = self.system.actor_instance(ref)
        return twin.status() if twin is not None else None

    def network_snapshot(self) -> dict:
        """Everything the network visualization (Fig. 3) needs."""
        fleet = self.fleet
        sensors = {}
        for node_id in fleet.sensor_refs:
            status = self.sensor_status(node_id)
            if status is not None:
                status["location"] = self.node_locations.get(node_id)
                status["city"] = self.node_city.get(node_id)
                sensors[node_id] = status
        gateways = {}
        for gw_id in fleet.gateway_refs:
            status = self.gateway_status(gw_id)
            if status is not None:
                status["location"] = self.node_locations.get(gw_id)
                gateways[gw_id] = status
        return {
            "sensors": sensors,
            "gateways": gateways,
            "overdue_sensors": fleet.overdue_sensors(),
            "silent_gateways": fleet.silent_gateways(),
            "active_alarms": [
                {
                    "kind": a.kind.value,
                    "source": a.source,
                    "severity": int(a.severity),
                    "message": a.message,
                }
                for a in self.alarms.active()
            ],
        }

    def status_json(self) -> str:
        """The REST endpoint body (hop 4's HTTP answer)."""
        snapshot = self.network_snapshot()
        snapshot["stats"] = {
            "uplinks_processed": self.stats.uplinks_processed,
            "decode_errors": self.stats.decode_errors,
            "points_written": self.stats.points_written,
            "points_pending": self.writer.pending,
            "batch_flushes": self.stats.batch_flushes,
            "critical_alarms": len(
                self.alarms.active(min_severity=Severity.CRITICAL)
            ),
        }
        return json.dumps(snapshot, sort_keys=True)
