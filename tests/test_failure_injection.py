"""Failure-injection integration tests: the system under adversity.

The paper's §2.3 is entirely about fault tolerance.  These tests inject
every failure class into the *full* ecosystem and verify the monitoring
and data layers respond as designed.
"""

import numpy as np
import pytest

from repro.core import CttEcosystem, EcosystemConfig, trondheim_deployment, vejle_deployment
from repro.dataport import AlarmKind, Severity
from repro.sensors import FaultEvent, FaultKind, FaultPlan
from repro.simclock import DAY, HOUR
from repro.tsdb import METRIC_CO2, Query


def make_eco(city="vejle", seed=31, **config):
    deployment = vejle_deployment() if city == "vejle" else trondheim_deployment()
    eco = CttEcosystem(
        [deployment], config=EcosystemConfig(seed=seed, **config)
    )
    eco.start()
    return eco


class TestSensorFailures:
    def test_transient_dropout_creates_gap_then_recovers(self):
        eco = make_eco()
        city = eco.city("vejle")
        eco.run(2 * HOUR)
        node = city.nodes["ctt-vj-01"]
        # Inject a 90-minute radio dropout.
        node.fault_plan.add(
            FaultEvent(FaultKind.TRANSIENT_DROPOUT, eco.now, 90 * 60)
        )
        eco.run(3 * HOUR)
        # The twin flagged it while silent, and it recovered after.
        status = city.dataport.sensor_status("ctt-vj-01")
        assert not status["overdue"]  # recovered by now
        history_kinds = [a.kind for a in city.dataport.alarms.history]
        assert AlarmKind.SENSOR_OVERDUE in history_kinds
        # The gap is visible in the data.
        res = eco.db.run(
            Query(METRIC_CO2, 0, eco.now, tags={"node": "ctt-vj-01"})
        ).single()
        diffs = np.diff(res.timestamps)
        assert diffs.max() >= 85 * 60

    def test_permanent_death_stays_overdue(self):
        eco = make_eco()
        city = eco.city("vejle")
        eco.run(HOUR)
        city.nodes["ctt-vj-02"].fault_plan.add(
            FaultEvent(FaultKind.PERMANENT_DEATH, eco.now)
        )
        eco.run(4 * HOUR)
        assert not city.nodes["ctt-vj-02"].alive
        assert city.dataport.alarms.is_active(
            AlarmKind.SENSOR_OVERDUE, "ctt-vj-02"
        )
        # The healthy sibling is unaffected.
        assert not city.dataport.alarms.is_active(
            AlarmKind.SENSOR_OVERDUE, "ctt-vj-01"
        )

    def test_stuck_channel_detectable_in_stored_data(self):
        from repro.analytics import stuck_values

        eco = make_eco()
        city = eco.city("vejle")
        city.nodes["ctt-vj-01"].fault_plan.add(
            FaultEvent(FaultKind.STUCK_VALUE, 0, channel="co2_ppm")
        )
        eco.run(3 * HOUR)
        res = eco.db.run(
            Query(METRIC_CO2, 0, eco.now, tags={"node": "ctt-vj-01"})
        ).single()
        runs = stuck_values(res.values, min_run=6, tolerance=0.5)
        assert runs  # the analytics catch what the fault injected

    def test_random_fault_config_runs_clean(self):
        """`with_faults=True` wiring: the ecosystem survives arbitrary
        (seeded) fault plans without crashing."""
        eco = make_eco(city="trondheim", with_faults=True, seed=97)
        eco.run(6 * HOUR)
        stats = eco.city("trondheim").delivery_stats()
        assert stats["processed_dataport"] > 0


class TestInfrastructureFailures:
    def test_network_server_outage_drops_everything(self):
        eco = make_eco()
        city = eco.city("vejle")
        eco.run(HOUR)
        before = city.network_server.forwarded
        city.network_server.online = False
        eco.run(HOUR)
        assert city.network_server.forwarded == before
        assert city.network_server.stats()["dropped_while_offline"] > 0
        city.network_server.online = True
        eco.run(HOUR)
        assert city.network_server.forwarded > before

    def test_gateway_outage_vejle_single_gateway(self):
        """Vejle has ONE gateway: its outage silences the whole city and
        must raise exactly one grouped alarm."""
        eco = make_eco()
        city = eco.city("vejle")
        eco.run(HOUR)
        city.plane.gateway("gw-vj-centrum").set_online(False)
        eco.run(2 * HOUR)
        assert city.dataport.alarms.is_active(
            AlarmKind.GATEWAY_OUTAGE, "gw-vj-centrum"
        )
        assert city.dataport.alarms.active(kind=AlarmKind.SENSOR_OVERDUE) == []
        assert len(city.dataport.fleet.overdue_sensors()) == 2

    def test_trondheim_multi_gateway_redundancy(self):
        """With 3 gateways, losing one must NOT silence any sensor —
        the density argument for multiple gateways."""
        eco = make_eco(city="trondheim", seed=17)
        city = eco.city("trondheim")
        eco.run(HOUR)
        city.plane.gateway("gw-tr-tyholt").set_online(False)
        eco.run(2 * HOUR)
        # The gateway alarm fires...
        assert city.dataport.alarms.is_active(
            AlarmKind.GATEWAY_OUTAGE, "gw-tr-tyholt"
        )
        # ...but data keeps flowing from every node via other gateways.
        snapshot = city.network_snapshot()
        assert snapshot["overdue_sensors"] == []

    def test_watchdog_cycle(self):
        eco = make_eco()
        city = eco.city("vejle")
        eco.run(HOUR)
        city.dataport.healthy = False
        eco.run(HOUR)
        assert city.watchdog.down
        assert city.dataport.alarms.is_active(
            AlarmKind.DATAPORT_DOWN, "dataport-vejle"
        )
        city.dataport.healthy = True
        eco.run(HOUR)
        assert not city.watchdog.down


class TestDataLayerResilience:
    def test_snapshot_survives_fault_run(self, tmp_path):
        from repro.tsdb import load, snapshot

        eco = make_eco(city="vejle", with_faults=True, seed=61)
        eco.run(4 * HOUR)
        path = tmp_path / "snap.seg"
        n = snapshot(eco.db, path)
        restored = load(path)
        assert restored.point_count == n
        assert restored.metrics() == eco.db.metrics()

    def test_battery_low_alarm_from_real_depletion(self):
        from repro.sensors import PowerSpec

        eco = make_eco(
            power_spec=PowerSpec(battery_capacity_mah=40.0),
            initial_soc=0.3,
        )
        city = eco.city("vejle")
        eco.run(8 * HOUR)  # winter: no meaningful solar income
        kinds = {a.kind for a in city.dataport.alarms.history}
        assert kinds & {AlarmKind.BATTERY_LOW, AlarmKind.BATTERY_CRITICAL}
