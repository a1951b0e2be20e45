"""LoRaWAN gateways and the city-wide radio plane.

Gateways are fixed receivers; the :class:`RadioPlane` owns all of them
plus the propagation model, evaluates every transmitted uplink against
every gateway (LoRaWAN is receive-by-all), applies collision capture,
and reports per-gateway receptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import GeoPoint
from .airtime import airtime_s
from .frames import GatewayReception, Uplink
from .radio import DEFAULT_TX_POWER_DBM, PropagationModel


@dataclass
class Gateway:
    """One LoRaWAN gateway installation."""

    gateway_id: str
    location: GeoPoint
    altitude_m: float = 20.0
    online: bool = True
    received_count: int = 0

    def set_online(self, online: bool) -> None:
        self.online = online


@dataclass
class _InFlight:
    uplink: Uplink
    start: float
    end: float
    rssi_by_gateway: dict[str, float]
    snr_by_gateway: dict[str, float]


class RadioPlane:
    """Shared radio medium connecting devices and gateways.

    :meth:`transmit` evaluates one uplink and returns the receptions per
    gateway.  Concurrent transmissions (overlapping airtime on the same
    SF) interfere: the stronger frame survives if it is at least
    ``capture_threshold_db`` above the other, otherwise both are lost at
    that gateway (standard LoRa capture-effect model).
    """

    def __init__(
        self,
        model: PropagationModel | None = None,
        rng: np.random.Generator | None = None,
        capture_threshold_db: float = 6.0,
    ) -> None:
        self.model = model if model is not None else PropagationModel()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.capture_threshold_db = capture_threshold_db
        self._gateways: dict[str, Gateway] = {}
        self._recent: list[_InFlight] = []
        self.transmissions = 0
        self.collisions = 0

    # -- gateway management ---------------------------------------------
    def add_gateway(self, gateway: Gateway) -> None:
        if gateway.gateway_id in self._gateways:
            raise ValueError(f"duplicate gateway id: {gateway.gateway_id}")
        self._gateways[gateway.gateway_id] = gateway

    def gateway(self, gateway_id: str) -> Gateway:
        return self._gateways[gateway_id]

    def gateways(self) -> list[Gateway]:
        return list(self._gateways.values())

    # -- transmission ----------------------------------------------------
    def transmit(
        self,
        uplink: Uplink,
        from_location: GeoPoint,
        tx_power_dbm: float = DEFAULT_TX_POWER_DBM,
    ) -> list[GatewayReception]:
        """Send one uplink; returns successful gateway receptions."""
        self.transmissions += 1
        duration = airtime_s(uplink.phy_size, uplink.sf)
        start = float(uplink.sent_at)
        end = start + duration

        rssi_map: dict[str, float] = {}
        snr_map: dict[str, float] = {}
        receptions: list[GatewayReception] = []
        for gw in self._gateways.values():
            if not gw.online:
                continue
            distance = from_location.distance_to(gw.location)
            budget = self.model.evaluate(distance, uplink.sf, tx_power_dbm, self._rng)
            rssi_map[gw.gateway_id] = budget.rssi_dbm
            snr_map[gw.gateway_id] = budget.snr_db
            if budget.received:
                receptions.append(
                    GatewayReception(gw.gateway_id, budget.rssi_dbm, budget.snr_db)
                )

        flight = _InFlight(uplink, start, end, rssi_map, snr_map)
        survivors = self._apply_collisions(flight, receptions)
        self._recent.append(flight)
        self._recent = [f for f in self._recent if f.end > start - 10.0]
        for r in survivors:
            self._gateways[r.gateway_id].received_count += 1
        return survivors

    def _apply_collisions(
        self, flight: _InFlight, receptions: list[GatewayReception]
    ) -> list[GatewayReception]:
        overlapping = [
            f
            for f in self._recent
            if f.uplink.sf == flight.uplink.sf
            and f.end > flight.start
            and f.start < flight.end
            and f.uplink.dev_eui != flight.uplink.dev_eui
        ]
        if not overlapping:
            return receptions
        survivors: list[GatewayReception] = []
        for r in receptions:
            ours = flight.rssi_by_gateway[r.gateway_id]
            strongest_other = max(
                (f.rssi_by_gateway.get(r.gateway_id, -999.0) for f in overlapping),
                default=-999.0,
            )
            if ours >= strongest_other + self.capture_threshold_db:
                survivors.append(r)  # capture: we win decisively
            else:
                self.collisions += 1
        return survivors
