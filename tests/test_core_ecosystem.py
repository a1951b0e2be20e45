"""Tests for deployments, the full ecosystem, and demo scenarios."""

import numpy as np
import pytest

from repro.core import (
    CttEcosystem,
    EcosystemConfig,
    backfill_history,
    build_air_quality_dashboard,
    build_traffic_dashboard,
    build_wall_display,
    citizens_scenario,
    developer_scenario,
    officials_scenario,
    trondheim_deployment,
    vejle_deployment,
)
from repro.sensors import PollutionInjection
from repro.simclock import CTT_EPOCH, DAY, HOUR
from repro.tsdb import METRIC_CO2, METRIC_JAM_FACTOR, Query


class TestDeployments:
    def test_trondheim_has_twelve_nodes(self):
        d = trondheim_deployment()
        assert len(d.nodes) == 12
        assert len(d.gateways) == 3
        assert d.city == "trondheim"

    def test_vejle_has_two_nodes(self):
        d = vejle_deployment()
        assert len(d.nodes) == 2
        assert len(d.gateways) == 1

    def test_each_city_has_reference_anchor(self):
        for d in (trondheim_deployment(), vejle_deployment()):
            assert d.reference_node is not None
            assert d.reference_location is not None

    def test_node_ids_unique(self):
        d = trondheim_deployment()
        ids = [n.node_id for n in d.nodes]
        assert len(set(ids)) == len(ids)

    def test_nodes_within_city_scale(self):
        d = trondheim_deployment()
        for n in d.nodes:
            assert d.center.distance_to(n.location) < 5000.0


@pytest.fixture(scope="module")
def eco():
    """Both cities, 6 simulated hours, shared for read-only tests."""
    ecosystem = CttEcosystem(
        [trondheim_deployment(), vejle_deployment()],
        config=EcosystemConfig(seed=1, shadowing_sigma_db=4.0),
    )
    ecosystem.start()
    ecosystem.run(6 * HOUR)
    return ecosystem


class TestEcosystem:
    def test_both_cities_deliver_data(self, eco):
        for name in ("trondheim", "vejle"):
            stats = eco.city(name).delivery_stats()
            assert stats["transmissions"] > 0
            assert stats["end_to_end_rate"] > 0.8

    def test_database_is_shared(self, eco):
        cities = eco.db.tag_values(METRIC_CO2, "city")
        assert cities == ["trondheim", "vejle"]

    def test_twelve_and_two_nodes_report(self, eco):
        trd = eco.db.tag_values(METRIC_CO2, "node")
        assert len([n for n in trd if n.startswith("ctt-tr")]) == 12
        assert len([n for n in trd if n.startswith("ctt-vj")]) == 2

    def test_network_snapshot_complete(self, eco):
        snap = eco.city("trondheim").network_snapshot()
        assert len(snap["sensors"]) == 12
        assert len(snap["gateways"]) == 3
        assert snap["overdue_sensors"] == []

    def test_external_sync(self, eco):
        report = eco.city("trondheim").sync_external(
            CTT_EPOCH, CTT_EPOCH + 6 * HOUR
        )
        assert report.per_source["nilu:trondheim-ref"] > 0
        assert report.per_source["here:traffic"] > 0
        assert "ext.no2_ugm3" in eco.db.metrics()

    def test_catalog_covers_table1(self, eco):
        from repro.integration import SourceType

        catalog = eco.city("trondheim").catalog
        assert catalog.missing_types() == {SourceType.CITY_MODEL_3D}
        assert eco.city("trondheim").city_model is not None  # row 5 is static

    def test_latest_sensor_values_for_overlay(self, eco):
        values = eco.city("trondheim").sensor_values_latest(METRIC_CO2)
        assert len(values) == 12
        for node, (loc, value) in values.items():
            assert 380.0 < value < 600.0

    def test_deterministic_given_seed(self):
        def build():
            e = CttEcosystem(
                [vejle_deployment()], config=EcosystemConfig(seed=5)
            )
            e.start()
            e.run(2 * HOUR)
            return e.city("vejle").delivery_stats()

        assert build() == build()


class TestBackfillAndScenarios:
    @pytest.fixture(scope="class")
    def city_with_history(self):
        eco = CttEcosystem(
            [vejle_deployment()], config=EcosystemConfig(seed=2)
        )
        city = eco.city("vejle")
        start = CTT_EPOCH
        end = start + 7 * DAY
        written = backfill_history(city, start, end, cadence_s=HOUR)
        assert written > 0
        eco.start()
        eco.scheduler.clock  # noqa: B018 - documented access
        return eco, city, start, end

    def test_backfill_volume(self, city_with_history):
        eco, city, start, end = city_with_history
        hours = (end - start) // HOUR
        res = eco.db.run(
            Query(METRIC_CO2, start, end - 1, tags={"city": "vejle", "node": "*"})
        )
        assert res.scanned_points == hours * 2  # 2 nodes

    def test_backfill_includes_traffic(self, city_with_history):
        eco, city, start, end = city_with_history
        res = eco.db.run(Query(METRIC_JAM_FACTOR, start, end - 1))
        assert not res.is_empty()

    def test_backfill_validation(self, city_with_history):
        eco, city, start, end = city_with_history
        with pytest.raises(ValueError):
            backfill_history(city, end, start)

    def test_developer_scenario(self, city_with_history):
        eco, city, *_ = city_with_history
        view = developer_scenario(city)
        assert "LoRaWAN -> network server -> MQTT" in view.architecture
        assert "ctt-vj-01" in view.architecture
        assert "uplink flow" in view.flow_description

    def test_officials_scenario_fig5_verdict(self, city_with_history):
        eco, city, start, end = city_with_history
        view = officials_scenario(city, start, end - 1)
        assert view.co2_traffic_verdict == "no apparent correlation"
        assert abs(view.co2_traffic_correlation) < 0.5
        assert view.factor_r2_full > view.factor_r2_traffic
        assert "<svg" in view.city_svg

    def test_officials_scenario_injection(self, city_with_history):
        eco, city, start, end = city_with_history
        injection = PollutionInjection(
            center=city.deployment.center,
            start=start + 3 * DAY,
            end=start + 3 * DAY + 6 * HOUR,
            no2_ugm3=120.0,
        )
        view = officials_scenario(city, start, end - 1, injection=injection)
        effect = view.suggested_injection_effect
        assert effect["no2_after"] > effect["no2_before"] + 100.0
        assert effect["caqi_after"] != effect["caqi_before"]
        city.environment.clear_injections()

    def test_citizens_scenario(self, city_with_history):
        eco, city, start, end = city_with_history
        view = citizens_scenario(city, start, end - 1)
        assert "Air quality" in view.dashboard_text
        assert view.anomalous_day_count >= 0

    def test_dashboards_render(self, city_with_history):
        eco, city, start, end = city_with_history
        air = build_air_quality_dashboard(city, start, end - 1)
        traffic = build_traffic_dashboard(city, start, end - 1)
        assert "CAQI per node" in air.render_text()
        assert "Jam factor" in traffic.render_text()
        assert "<svg" in air.render_html()

    def test_wall_display(self, city_with_history):
        eco, city, start, end = city_with_history
        wall = build_wall_display(city, start, end - 1)
        text = wall.render_text()
        assert "CTT wall" in text
        assert "Active alarms" in text
        assert "fleet:" in text
