"""Tests for digital twins, alarm grouping, and the watchdog."""

import numpy as np
import pytest

from repro.dataport import (
    ActorSystem,
    Alarm,
    AlarmKind,
    AlarmLog,
    BackendTwin,
    FleetSupervisor,
    GatewayHeard,
    SensorTwin,
    Severity,
    TwinConfig,
    UplinkObserved,
    Watchdog,
)
from repro.lorawan import (
    GatewayReception,
    Measurements,
    ReceivedUplink,
    Uplink,
    encode_measurements,
)
from repro.simclock import Scheduler, SimClock


def make_uplink(node_id="ctt-01", ts=0, battery_v=3.9, gateways=("gw-0",), fcnt=0):
    m = Measurements(420.0, 20.0, 15.0, 8.0, 5.0, 1013.0, 80.0, battery_v, fcnt)
    uplink = Uplink(node_id, fcnt, encode_measurements(m), sf=9, sent_at=ts)
    receptions = tuple(
        GatewayReception(gw, -90.0 - 3.0 * i, 5.0) for i, gw in enumerate(gateways)
    )
    received = ReceivedUplink(uplink, receptions, received_at=ts)
    return UplinkObserved(node_id, received, m)


class Harness:
    """A fleet supervisor + twins on a simulated clock."""

    def __init__(self, config=None):
        self.scheduler = Scheduler(SimClock(start=0))
        self.system = ActorSystem(self.scheduler)
        self.alarms = AlarmLog()
        self.config = config or TwinConfig()
        self.fleet_ref = self.system.spawn(
            lambda: FleetSupervisor(self.config, self.alarms), "fleet"
        )

    @property
    def fleet(self) -> FleetSupervisor:
        return self.system.actor_instance(self.fleet_ref)

    def add_sensor(self, node_id):
        return self.fleet.register_sensor(node_id)

    def add_gateway(self, gw_id):
        return self.fleet.register_gateway(gw_id)

    def sensor_twin(self, node_id) -> SensorTwin:
        return self.system.actor_instance(self.fleet.sensor_refs[node_id])

    def feed(self, node_id, ts, battery_v=3.9, gateways=("gw-0",), fcnt=0):
        msg = make_uplink(node_id, ts, battery_v, gateways, fcnt)
        self.fleet.sensor_refs[node_id].tell(msg)
        for gw in gateways:
            if gw in self.fleet.gateway_refs:
                self.fleet.gateway_refs[gw].tell(GatewayHeard(gw, ts, -90.0))


class TestSensorTwin:
    def test_tracks_state_from_uplinks(self):
        h = Harness()
        h.add_sensor("ctt-01")
        h.feed("ctt-01", ts=0)
        twin = h.sensor_twin("ctt-01")
        assert twin.last_seen == 0
        assert twin.uplinks == 1
        assert twin.last_battery_v == pytest.approx(3.9, abs=0.01)
        assert twin.recent_gateways == {"gw-0"}

    def test_overdue_after_cycles_to_failure(self):
        h = Harness()
        h.add_sensor("ctt-01")
        h.feed("ctt-01", ts=0, fcnt=0)
        h.feed("ctt-01", ts=300, fcnt=1)
        # Silence for 3+ cycles of 300 s -> overdue at ~1200 s.
        h.scheduler.run_until(2000)
        assert h.sensor_twin("ctt-01").overdue
        assert h.alarms.is_active(AlarmKind.SENSOR_OVERDUE, "ctt-01")

    def test_not_overdue_while_reporting(self):
        h = Harness()
        h.add_sensor("ctt-01")
        for i in range(10):
            h.scheduler.run_until(i * 300)
            h.feed("ctt-01", ts=i * 300, fcnt=i)
        assert not h.sensor_twin("ctt-01").overdue
        assert not h.alarms.is_active(AlarmKind.SENSOR_OVERDUE, "ctt-01")

    def test_recovery_clears_alarm(self):
        h = Harness()
        h.add_sensor("ctt-01")
        h.feed("ctt-01", ts=0, fcnt=0)
        h.scheduler.run_until(2000)
        assert h.alarms.is_active(AlarmKind.SENSOR_OVERDUE, "ctt-01")
        h.feed("ctt-01", ts=2000, fcnt=1)
        assert not h.alarms.is_active(AlarmKind.SENSOR_OVERDUE, "ctt-01")
        assert not h.sensor_twin("ctt-01").overdue

    def test_adaptive_interval_model_prevents_false_alarm(self):
        """A low-battery node slows to 3x interval; the twin must mirror
        that and NOT flag it at the nominal cadence (the paper's point)."""
        h = Harness()
        h.add_sensor("ctt-01")
        # battery 3.5 V -> SoC ~0.14 -> low -> expected interval 900 s.
        h.feed("ctt-01", ts=0, battery_v=3.5, fcnt=0)
        h.feed("ctt-01", ts=900, battery_v=3.5, fcnt=1)
        # 2000 s since last: only ~1.2 adaptive cycles -> healthy.
        h.scheduler.run_until(2900)
        assert not h.sensor_twin("ctt-01").overdue
        # But at nominal 300 s cadence 2000 s would be 6.7 cycles:
        assert (2900 - 900) / 300 > h.config.cycles_to_failure

    def test_battery_alarms(self):
        h = Harness()
        h.add_sensor("ctt-01")
        h.feed("ctt-01", ts=0, battery_v=3.5, fcnt=0)
        assert h.alarms.is_active(AlarmKind.BATTERY_LOW, "ctt-01")
        h.feed("ctt-01", ts=300, battery_v=3.2, fcnt=1)
        assert h.alarms.is_active(AlarmKind.BATTERY_CRITICAL, "ctt-01")
        h.feed("ctt-01", ts=600, battery_v=4.0, fcnt=2)
        assert not h.alarms.is_active(AlarmKind.BATTERY_LOW, "ctt-01")
        assert not h.alarms.is_active(AlarmKind.BATTERY_CRITICAL, "ctt-01")

    def test_never_seen_sensor_not_flagged(self):
        h = Harness()
        h.add_sensor("ctt-01")
        h.scheduler.run_until(10_000)
        assert not h.sensor_twin("ctt-01").overdue

    def test_status_snapshot(self):
        h = Harness()
        h.add_sensor("ctt-01")
        h.feed("ctt-01", ts=0)
        status = h.sensor_twin("ctt-01").status()
        assert status["node_id"] == "ctt-01"
        assert status["uplinks"] == 1
        assert status["gateways"] == ["gw-0"]


class TestGatewayTwinAndGrouping:
    def test_gateway_silence_raises_outage(self):
        h = Harness()
        h.add_gateway("gw-0")
        h.fleet.gateway_refs["gw-0"].tell(GatewayHeard("gw-0", 0, -90.0))
        h.scheduler.run_until(2000)
        assert h.alarms.is_active(AlarmKind.GATEWAY_OUTAGE, "gw-0")

    def test_gateway_recovery_clears(self):
        h = Harness()
        h.add_gateway("gw-0")
        h.fleet.gateway_refs["gw-0"].tell(GatewayHeard("gw-0", 0, -90.0))
        h.scheduler.run_until(2000)
        h.fleet.gateway_refs["gw-0"].tell(GatewayHeard("gw-0", 2000, -90.0))
        assert not h.alarms.is_active(AlarmKind.GATEWAY_OUTAGE, "gw-0")

    def test_gateway_outage_groups_sensor_alarms(self):
        """12 sensors behind one gateway: its outage must produce ONE
        gateway alarm, not 12 sensor alarms (the hierarchy's purpose)."""
        h = Harness()
        h.add_gateway("gw-0")
        nodes = [f"ctt-{i:02d}" for i in range(12)]
        for n in nodes:
            h.add_sensor(n)
            h.feed(n, ts=0, gateways=("gw-0",))
        # Everything goes silent (gateway died).
        h.scheduler.run_until(5000)
        assert h.alarms.is_active(AlarmKind.GATEWAY_OUTAGE, "gw-0")
        sensor_alarms = h.alarms.active(kind=AlarmKind.SENSOR_OVERDUE)
        assert sensor_alarms == []  # grouped away
        assert len(h.fleet.overdue_sensors()) == 12

    def test_sensor_failure_with_live_gateway_is_per_sensor(self):
        h = Harness()
        h.add_gateway("gw-0")
        h.add_sensor("ctt-01")
        h.add_sensor("ctt-02")
        h.feed("ctt-01", ts=0, fcnt=0)
        h.feed("ctt-02", ts=0, fcnt=0)
        # ctt-02 keeps reporting (gateway alive), ctt-01 dies.
        for i in range(1, 20):
            h.scheduler.run_until(i * 300)
            h.feed("ctt-02", ts=i * 300, fcnt=i)
        assert h.alarms.is_active(AlarmKind.SENSOR_OVERDUE, "ctt-01")
        assert not h.alarms.is_active(AlarmKind.GATEWAY_OUTAGE, "gw-0")

    def test_multi_gateway_sensor_not_grouped_if_one_gateway_alive(self):
        h = Harness()
        h.add_gateway("gw-0")
        h.add_gateway("gw-1")
        h.add_sensor("ctt-01")
        h.feed("ctt-01", ts=0, gateways=("gw-0", "gw-1"), fcnt=0)
        # Only gw-0 dies; gw-1 still hears other traffic.
        for i in range(1, 20):
            h.scheduler.run_until(i * 300)
            h.fleet.gateway_refs["gw-1"].tell(
                GatewayHeard("gw-1", i * 300, -95.0)
            )
        # ctt-01 silent, but it could reach gw-1 -> per-sensor alarm.
        assert h.alarms.is_active(AlarmKind.SENSOR_OVERDUE, "ctt-01")


class TestBackendTwin:
    def test_backend_down_on_missing_heartbeat(self):
        sched = Scheduler(SimClock(start=0))
        system = ActorSystem(sched)
        alarms = AlarmLog()
        ref = system.spawn(lambda: BackendTwin(alarms, timeout_s=600), "backend")
        ref.tell(BackendTwin.Heartbeat("mqtt", 0))
        sched.run_until(1000)
        assert alarms.is_active(AlarmKind.MQTT_DOWN, "mqtt")
        ref.tell(BackendTwin.Heartbeat("mqtt", 1000))
        assert not alarms.is_active(AlarmKind.MQTT_DOWN, "mqtt")


class TestAlarmLog:
    def test_dedup(self):
        log = AlarmLog()
        a = Alarm(AlarmKind.BATTERY_LOW, "n1", Severity.WARNING, "low", 0)
        assert log.raise_alarm(a)
        assert not log.raise_alarm(a)
        assert log.suppressed == 1
        assert len(log) == 1
        assert len(log.history) == 1

    def test_clear_and_reraise(self):
        log = AlarmLog()
        a = Alarm(AlarmKind.BATTERY_LOW, "n1", Severity.WARNING, "low", 0)
        log.raise_alarm(a)
        assert log.clear(AlarmKind.BATTERY_LOW, "n1")
        assert not log.clear(AlarmKind.BATTERY_LOW, "n1")
        assert log.raise_alarm(a)  # new incident after clear
        assert len(log.history) == 2

    def test_severity_filter_and_ordering(self):
        log = AlarmLog()
        log.raise_alarm(Alarm(AlarmKind.BATTERY_LOW, "a", Severity.WARNING, "", 5))
        log.raise_alarm(Alarm(AlarmKind.GATEWAY_OUTAGE, "b", Severity.CRITICAL, "", 9))
        active = log.active(min_severity=Severity.CRITICAL)
        assert [a.source for a in active] == ["b"]
        assert [a.source for a in log.active()] == ["b", "a"]


class TestWatchdog:
    def test_alarm_after_consecutive_failures(self):
        alarms = AlarmLog()
        alive = {"ok": True}
        dog = Watchdog("dataport", lambda: alive["ok"], alarms, failures_to_alarm=3)
        sched = Scheduler(SimClock(start=0))
        dog.start(sched)
        sched.run_until(300)
        assert not dog.down
        alive["ok"] = False
        sched.run_until(300 + 3 * 60)
        assert dog.down
        assert alarms.is_active(AlarmKind.DATAPORT_DOWN, "dataport")
        assert dog.stats.incidents == 1

    def test_recovery_clears(self):
        alarms = AlarmLog()
        alive = {"ok": False}
        dog = Watchdog("dataport", lambda: alive["ok"], alarms, failures_to_alarm=1)
        dog.check(0)
        assert dog.down
        alive["ok"] = True
        dog.check(60)
        assert not dog.down
        assert not alarms.is_active(AlarmKind.DATAPORT_DOWN, "dataport")

    def test_ping_exception_counts_as_failure(self):
        alarms = AlarmLog()

        def bad_ping():
            raise ConnectionError("refused")

        dog = Watchdog("x", bad_ping, alarms, failures_to_alarm=1)
        assert dog.check(0) is False
        assert dog.down

    def test_validation(self):
        with pytest.raises(ValueError):
            Watchdog("x", lambda: True, AlarmLog(), failures_to_alarm=0)

    def test_single_flap_does_not_alarm(self):
        alarms = AlarmLog()
        outcomes = iter([False, True, True])
        dog = Watchdog("x", lambda: next(outcomes), alarms, failures_to_alarm=3)
        dog.check(0)
        dog.check(60)
        assert not dog.down
        assert dog.stats.failures == 1
