"""End-to-end tests of the dataport pipeline (paper Fig. 2).

Sensor node → radio plane → network server → TTN/MQTT bridge → dataport
→ TSDB + twins + alarms, with the watchdog pinging the dataport.
"""

import json

import numpy as np
import pytest

from repro.dataport import AlarmKind, Dataport, TtnMqttBridge, Watchdog
from repro.geo import TRONDHEIM
from repro.lorawan import (
    Gateway,
    LoraDevice,
    NetworkServer,
    PropagationModel,
    RadioPlane,
)
from repro.mqtt import Broker
from repro.sensors import FixedInterval, SensorNode, UrbanEnvironment
from repro.simclock import HOUR, Scheduler, SimClock
from repro.tsdb import METRIC_CO2, Query, TSDB


class Pipeline:
    """Full Fig. 2 stack on one scheduler."""

    def __init__(self, n_nodes=3, seed=0, **dataport_kwargs):
        self.scheduler = Scheduler(SimClock(start=0))
        self.env = UrbanEnvironment("trondheim", TRONDHEIM, seed=7)
        self.plane = RadioPlane(
            PropagationModel(shadowing_sigma_db=0.0), np.random.default_rng(seed)
        )
        self.gateway = Gateway("gw-0", TRONDHEIM.destination(0.0, 300.0))
        self.plane.add_gateway(self.gateway)
        self.ns = NetworkServer()
        self.broker = Broker()
        self.bridge = TtnMqttBridge(self.ns, self.broker, "trondheim")
        self.db = TSDB()
        self.dataport = Dataport(
            self.broker, self.db, self.scheduler, **dataport_kwargs
        )
        self.dataport.register_gateway("gw-0")

        self.nodes = []
        for i in range(n_nodes):
            loc = TRONDHEIM.destination(30.0 * i, 150.0 + 50.0 * i)
            device = LoraDevice(f"ctt-{i:02d}", loc, self.plane, sf=9)
            node = SensorNode(
                f"ctt-{i:02d}",
                loc,
                self.env,
                device,
                rng=np.random.default_rng(100 + i),
                policy=FixedInterval(300),
            )
            self.dataport.register_sensor(f"ctt-{i:02d}", (loc.lat, loc.lon), "trondheim")
            node.on_transmit(self._forward)
            # Deterministic 20 s stagger so transmissions never collide.
            node.schedule(self.scheduler, phase_s=20 * i)
            self.nodes.append(node)

    def expected_uplinks(self, i, horizon=3600):
        """Wake-ups of node ``i`` in [0, horizon]: 300+20i, then every 300 s."""
        first = 300 + 20 * i
        return 0 if first > horizon else 1 + (horizon - first) // 300

    def _forward(self, node, result, now):
        if result.uplink is not None:
            self.ns.ingest(result.uplink, result.receptions, now)

    def run(self, seconds):
        self.scheduler.run_for(seconds)


class TestEndToEnd:
    def test_uplinks_reach_the_database(self):
        p = Pipeline(n_nodes=3)
        p.run(HOUR)
        expected = sum(p.expected_uplinks(i) for i in range(3))
        assert p.dataport.stats.uplinks_processed == expected
        res = p.db.run(Query(METRIC_CO2, 0, HOUR, tags={"city": "trondheim"}))
        assert not res.is_empty()
        assert res.scanned_points == expected

    def test_tags_carry_node_and_city(self):
        p = Pipeline(n_nodes=2)
        p.run(HOUR)
        assert p.db.suggest_tag_values(METRIC_CO2, "node") == ["ctt-00", "ctt-01"]
        assert p.db.suggest_tag_values(METRIC_CO2, "city") == ["trondheim"]

    def test_twins_track_every_node(self):
        p = Pipeline(n_nodes=3)
        p.run(HOUR)
        for i in range(3):
            status = p.dataport.sensor_status(f"ctt-{i:02d}")
            assert status["uplinks"] == p.expected_uplinks(i)
            assert not status["overdue"]
        gw = p.dataport.gateway_status("gw-0")
        assert gw["frames"] == sum(p.expected_uplinks(i) for i in range(3))
        assert not gw["silent"]

    def test_gateway_outage_detected_and_grouped(self):
        p = Pipeline(n_nodes=3)
        p.run(HOUR)
        p.gateway.set_online(False)
        p.run(HOUR)
        assert p.dataport.alarms.is_active(AlarmKind.GATEWAY_OUTAGE, "gw-0")
        assert p.dataport.alarms.active(kind=AlarmKind.SENSOR_OVERDUE) == []
        snapshot = p.dataport.network_snapshot()
        assert snapshot["silent_gateways"] == ["gw-0"]
        assert len(snapshot["overdue_sensors"]) == 3

    def test_recovery_after_outage(self):
        p = Pipeline(n_nodes=2)
        p.run(HOUR)
        p.gateway.set_online(False)
        p.run(HOUR)
        p.gateway.set_online(True)
        p.run(HOUR)
        assert not p.dataport.alarms.is_active(AlarmKind.GATEWAY_OUTAGE, "gw-0")
        assert p.dataport.network_snapshot()["overdue_sensors"] == []

    def test_status_json_is_valid(self):
        p = Pipeline(n_nodes=1)
        p.run(HOUR)
        doc = json.loads(p.dataport.status_json())
        assert doc["stats"]["uplinks_processed"] == p.expected_uplinks(0)
        assert "ctt-00" in doc["sensors"]
        assert doc["sensors"]["ctt-00"]["location"] is not None

    def test_watchdog_detects_dataport_failure(self):
        p = Pipeline(n_nodes=1)
        dog = Watchdog(
            "dataport", p.dataport.ping, p.dataport.alarms, failures_to_alarm=3
        )
        dog.start(p.scheduler)
        p.run(HOUR)
        assert not dog.down
        p.dataport.healthy = False
        p.run(HOUR)
        assert dog.down
        assert p.dataport.alarms.is_active(AlarmKind.DATAPORT_DOWN, "dataport")

    def test_unhealthy_dataport_stops_writing(self):
        p = Pipeline(n_nodes=1)
        p.run(HOUR)
        written = p.dataport.stats.points_written
        p.dataport.healthy = False
        p.run(HOUR)
        assert p.dataport.stats.points_written == written

    def test_unknown_device_auto_registered(self):
        p = Pipeline(n_nodes=1)
        # A device nobody registered starts transmitting.
        device = LoraDevice("rogue-1", TRONDHEIM, p.plane, sf=9)
        node = SensorNode(
            "rogue-1", TRONDHEIM, p.env, device,
            rng=np.random.default_rng(999), policy=FixedInterval(300),
        )
        node.on_transmit(p._forward)
        node.schedule(p.scheduler, phase_s=77)
        p.run(HOUR)
        assert p.dataport.sensor_status("rogue-1") is not None

    def test_decode_errors_counted_not_fatal(self):
        p = Pipeline(n_nodes=1)
        p.broker.publish(
            "ctt/trondheim/devices/bogus/up", b"not json at all", qos=1
        )
        assert p.dataport.stats.decode_errors == 1
        p.run(HOUR)  # pipeline still works
        assert p.dataport.stats.uplinks_processed == p.expected_uplinks(0)

    def test_bridge_publishes_ttn_style_topics(self):
        p = Pipeline(n_nodes=1)
        seen = []
        client = p.broker.connect("spy")
        client.subscribe("ctt/trondheim/devices/+/up", seen.append)
        p.run(600)
        assert seen
        assert seen[0].topic == "ctt/trondheim/devices/ctt-00/up"
        doc = json.loads(seen[0].text())
        assert doc["dev_eui"] == "ctt-00"
        assert doc["gateways"][0]["id"] == "gw-0"


class TestBatchedWrites:
    """Hop 5 with a positive batch window: accumulate, flush per tick."""

    def test_windowed_mode_defers_until_tick(self):
        # Window offset from the 300 s sampling cadence so the flush
        # tick (t=400) never coincides with an uplink.
        p = Pipeline(n_nodes=1, batch_window_s=400)
        # First uplink lands at t=300; the first flush tick is t=400.
        p.run(399)
        assert p.dataport.stats.uplinks_processed == 1
        assert p.dataport.writer.pending == 8
        assert p.dataport.stats.points_written == 0
        assert p.db.point_count == 0
        p.run(1)  # the t=400 tick flushes the buffered uplink
        assert p.dataport.writer.pending == 0
        assert p.dataport.stats.points_written == 8
        assert p.db.point_count == 8

    def test_windowed_mode_matches_write_through_totals(self):
        eager = Pipeline(n_nodes=2)
        lazy = Pipeline(n_nodes=2, batch_window_s=300)
        eager.run(HOUR)
        lazy.run(HOUR)
        lazy.dataport.flush_writes()  # drain the last partial window
        assert (
            lazy.dataport.stats.points_written
            == eager.dataport.stats.points_written
        )
        q = Query(METRIC_CO2, 0, HOUR, tags={"city": "trondheim"})
        a, b = eager.db.run(q).single(), lazy.db.run(q).single()
        assert a.timestamps.tolist() == b.timestamps.tolist()
        assert a.values.tolist() == b.values.tolist()

    def test_write_through_mode_flushes_per_uplink(self):
        p = Pipeline(n_nodes=1)
        p.run(HOUR)
        assert p.dataport.writer.pending == 0
        assert p.dataport.stats.batch_flushes == p.expected_uplinks(0)
        assert p.dataport.stats.points_written == 8 * p.expected_uplinks(0)

    def test_buffer_cap_forces_early_flush(self):
        p = Pipeline(n_nodes=1, batch_window_s=HOUR, max_pending_points=16)
        p.run(HOUR - 1)  # several uplinks before the first tick
        # 8 points per uplink, cap at 16 -> flushed every second uplink.
        assert p.dataport.writer.pending < 16
        assert p.dataport.stats.points_written > 0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(n_nodes=1, batch_window_s=-1)

    def test_status_json_reports_pending_points(self):
        p = Pipeline(n_nodes=1, batch_window_s=400)
        p.run(399)
        stats = json.loads(p.dataport.status_json())["stats"]
        assert stats["points_pending"] == 8
        assert stats["points_written"] == 0
