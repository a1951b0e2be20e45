"""The CTT ecosystem: paper Fig. 1 assembled into one object.

``CityEcosystem`` builds the full stack for one pilot city — environment
→ sensor nodes → LoRaWAN radio plane → network server → TTN/MQTT bridge
→ dataport (twins, alarms, TSDB writes) → watchdog — plus the external
integration layer (NILU, OCO-2, here.com, municipal counts, national
statistics, CityGML model) harmonized into the same TSDB.

``CttEcosystem`` holds several cities (the paper runs Trondheim and
Vejle) over one shared simulation scheduler and database.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dataport import Dataport, TtnMqttBridge, TwinConfig, Watchdog
from ..geo import BoundingBox
from ..integration import (
    Catalog,
    CountingCampaign,
    Harmonizer,
    HereTrafficConnector,
    Municipality,
    MunicipalCountsConnector,
    NationalStatsConnector,
    NiluStation,
    Oco2Connector,
    generate_city_model,
)
from ..lorawan import Gateway, LoraDevice, NetworkServer, PropagationModel, RadioPlane
from ..mqtt import Broker
from ..region import CityIngress, CityPolicy, RegionalHub
from ..sensors import (
    BatteryAdaptive,
    PollutionInjection,
    PowerSpec,
    SensorNode,
    UrbanEnvironment,
    random_fault_plan,
)
from ..simclock import DAY, Scheduler, SimClock
from ..tsdb import TSDB, TimeSeriesStore
from .deployment import CityDeployment


@dataclass
class EcosystemConfig:
    """Knobs for building an ecosystem."""

    seed: int = 0
    shadowing_sigma_db: float = 5.0
    sampling_interval_s: int = 300
    with_faults: bool = False
    fault_horizon_days: int = 14
    initial_soc: float = 0.85
    power_spec: PowerSpec = field(default_factory=PowerSpec)
    twin_config: TwinConfig = field(default_factory=TwinConfig)
    watchdog_interval_s: int = 60
    #: Per-city fan-in policies.  Non-empty routes every dataport's hop-5
    #: writes through a :class:`~repro.region.RegionalHub` (bounded
    #: queues + backpressure) instead of straight into the store;
    #: deployments without a matching policy get the defaults.
    cities: tuple[CityPolicy, ...] = ()
    #: How often (sim seconds) the hub drains city queues into the store.
    region_flush_interval_s: int = 60
    #: Directory for spill-to-disk backpressure segments (required only
    #: when a city policy uses ``Backpressure.SPILL``).
    region_spill_dir: str | None = None

    @property
    def regional(self) -> bool:
        """True when ingestion fans in through a RegionalHub."""
        return bool(self.cities)

    def city_policy(self, city: str) -> CityPolicy:
        """The configured policy for a city, or the defaults."""
        for policy in self.cities:
            if policy.city == city:
                return policy
        return CityPolicy(city)


class CityEcosystem:
    """One pilot city, fully wired."""

    def __init__(
        self,
        deployment: CityDeployment,
        scheduler: Scheduler,
        db: TimeSeriesStore,
        config: EcosystemConfig | None = None,
        *,
        ingest: CityIngress | None = None,
    ) -> None:
        self.deployment = deployment
        self.scheduler = scheduler
        self.db = db
        #: Hop-5 write endpoint: the regional fan-in lane when this city
        #: sits behind a RegionalHub, else the store itself.  Reads
        #: (dashboards, `last`, analytics) always go to ``db``.
        self.ingest = ingest
        self.config = config or EcosystemConfig()
        seed = self.config.seed

        # -- world ---------------------------------------------------------
        self.environment = UrbanEnvironment(
            deployment.city,
            deployment.center,
            seed=deployment.environment_seed,
            roads=list(deployment.roads),
            mean_temp_c=deployment.mean_temp_c,
        )

        # -- radio plane + gateways -----------------------------------------
        self.plane = RadioPlane(
            PropagationModel(shadowing_sigma_db=self.config.shadowing_sigma_db),
            np.random.default_rng([seed, 1]),
        )
        for gw in deployment.gateways:
            self.plane.add_gateway(
                Gateway(gw.gateway_id, gw.location, gw.altitude_m)
            )

        # -- backend: network server -> MQTT -> dataport ---------------------
        self.network_server = NetworkServer()
        self.broker = Broker()
        self.bridge = TtnMqttBridge(self.network_server, self.broker, deployment.city)
        self.dataport = Dataport(
            self.broker,
            ingest if ingest is not None else db,
            scheduler,
            config=self.config.twin_config,
        )
        for gw in deployment.gateways:
            self.dataport.register_gateway(
                gw.gateway_id, (gw.location.lat, gw.location.lon)
            )

        # -- sensor nodes ------------------------------------------------------
        self.nodes: dict[str, SensorNode] = {}
        start = scheduler.clock.now()
        for i, placement in enumerate(deployment.nodes):
            node_rng = np.random.default_rng([seed, 3, i])
            device = LoraDevice(
                placement.node_id, placement.location, self.plane, sf=9
            )
            fault_plan = None
            if self.config.with_faults:
                fault_plan = random_fault_plan(
                    np.random.default_rng([seed, 4, i]),
                    start,
                    start + self.config.fault_horizon_days * DAY,
                )
            node = SensorNode(
                placement.node_id,
                placement.location,
                self.environment,
                device,
                rng=node_rng,
                power_spec=self.config.power_spec,
                policy=BatteryAdaptive(self.config.sampling_interval_s),
                fault_plan=fault_plan,
                initial_soc=self.config.initial_soc,
                start_time=start,
            )
            node._last_wake = start
            node.on_transmit(self._forward_uplink)
            self.dataport.register_sensor(
                placement.node_id,
                (placement.location.lat, placement.location.lon),
                deployment.city,
            )
            self.nodes[placement.node_id] = node

        # -- watchdog (hop 8) -----------------------------------------------------
        self.watchdog = Watchdog(
            f"dataport-{deployment.city}",
            self.dataport.ping,
            self.dataport.alarms,
            interval_s=self.config.watchdog_interval_s,
        )

        # -- external integration (Table 1) ------------------------------------------
        self.catalog = Catalog()
        self.harmonizer = Harmonizer(db)
        region = BoundingBox.around(deployment.center, 6000.0)
        ref_loc = deployment.reference_location or deployment.center
        self.nilu = NiluStation(
            f"{deployment.city}-ref", ref_loc, self.environment, seed=seed
        )
        self.oco2 = Oco2Connector(region, self.environment, seed=seed)
        self.here = HereTrafficConnector(
            self.environment, list(deployment.roads), seed=seed
        )
        self.counts = MunicipalCountsConnector(
            self.environment,
            [
                CountingCampaign(
                    deployment.roads[0], start + 2 * DAY, start + 9 * DAY
                )
            ],
            seed=seed,
        )
        self.stats = NationalStatsConnector(
            Municipality(
                deployment.city,
                population=190_000 if deployment.city == "trondheim" else 58_000,
                national_population=5_250_000,
            ),
            seed=seed,
        )
        for connector in (self.nilu, self.oco2, self.here, self.counts, self.stats):
            self.catalog.register(connector)
            self.harmonizer.register(connector)
        self.city_model = generate_city_model(
            deployment.city, deployment.center, seed=seed
        )

        self._started = False

    # ------------------------------------------------------------------
    def _forward_uplink(self, node, result, now) -> None:
        if result.uplink is not None:
            self.network_server.ingest(result.uplink, result.receptions, now)

    def start(self) -> None:
        """Schedule node loops and the watchdog (idempotent)."""
        if self._started:
            return
        self._started = True
        for i, node in enumerate(self.nodes.values()):
            # Deterministic stagger spreads airtime across the interval.
            phase = (i * 17) % self.config.sampling_interval_s
            node.schedule(self.scheduler, phase_s=phase)
        self.watchdog.start(self.scheduler)

    def sync_external(self, start: int, end: int):
        """Pull all Table 1 feeds for a window into the TSDB."""
        return self.harmonizer.sync(start, end)

    def inject_pollution(self, injection: PollutionInjection) -> None:
        """Demo scenario hook: synthetic pollution event."""
        self.environment.inject(injection)

    # -- convenience views ------------------------------------------------
    def network_snapshot(self) -> dict:
        return self.dataport.network_snapshot()

    def sensor_values_latest(self, metric: str) -> dict:
        """{node: (location, latest value)} for Fig. 7-style overlays."""
        out = {}
        for key, (_ts, value) in self.db.last(
            metric, {"city": self.deployment.city}
        ).items():
            node = key.tag("node")
            if node is None:
                continue
            loc = self.dataport.node_locations.get(node)
            if loc is None:
                continue
            from ..geo import GeoPoint

            out[node] = (GeoPoint(loc[0], loc[1]), value)
        return out

    def delivery_stats(self) -> dict[str, float]:
        """End-to-end pipeline health numbers (Fig. 1/2 benches)."""
        sent = sum(n.stats.transmissions for n in self.nodes.values())
        delivered = sum(n.stats.delivered for n in self.nodes.values())
        processed = self.dataport.stats.uplinks_processed
        return {
            "transmissions": sent,
            "delivered_radio": delivered,
            "processed_dataport": processed,
            "radio_delivery_rate": delivered / sent if sent else 0.0,
            "end_to_end_rate": processed / sent if sent else 0.0,
            "points_written": self.dataport.stats.points_written,
            "collisions": self.plane.collisions,
        }


class CttEcosystem:
    """Both pilot cities on one clock and one database (the paper's demo)."""

    def __init__(
        self,
        deployments: list[CityDeployment],
        *,
        config: EcosystemConfig | None = None,
        start_time: int | None = None,
    ) -> None:
        from ..simclock import CTT_EPOCH

        self.scheduler = Scheduler(
            SimClock(start=start_time if start_time is not None else CTT_EPOCH)
        )
        self.config = config or EcosystemConfig()
        self.db = TSDB()
        #: The regional fan-in hub; None when dataports write directly.
        self.hub: RegionalHub | None = None
        if self.config.regional:
            self.hub = RegionalHub(
                self.db,
                self.scheduler,
                flush_interval_s=self.config.region_flush_interval_s,
                spill_dir=self.config.region_spill_dir,
            )
        self.cities: dict[str, CityEcosystem] = {}
        # A policy naming no deployment is a config error (typo'd city),
        # not a silent fall-back to defaults.
        deployed = {d.city for d in deployments}
        unmatched = [p.city for p in self.config.cities if p.city not in deployed]
        if unmatched:
            raise ValueError(
                f"city policies for undeployed cities: {unmatched}; "
                f"deployments are {sorted(deployed)}"
            )
        for deployment in deployments:
            ingest = None
            if self.hub is not None:
                ingest = self.hub.register_city(
                    self.config.city_policy(deployment.city)
                )
            self.cities[deployment.city] = CityEcosystem(
                deployment, self.scheduler, self.db, self.config, ingest=ingest
            )

    def start(self) -> None:
        for city in self.cities.values():
            city.start()
        if self.hub is not None:
            self.hub.start()

    def run(self, seconds: int) -> None:
        """Advance the whole simulation."""
        self.scheduler.run_for(seconds)

    def flush_region(self) -> int:
        """Drain every fan-in lane so all accepted points are queryable.

        No-op (returns 0) without a hub.  Call before reading the store
        when a run may have ended between hub flush ticks.
        """
        return self.hub.drain_all() if self.hub is not None else 0

    def city(self, name: str) -> CityEcosystem:
        return self.cities[name]

    @property
    def now(self) -> int:
        return self.scheduler.clock.now()
