"""Geodesic primitives on the WGS84 sphere.

The CTT deployments live in Trondheim (63.43 N, 10.40 E) and Vejle
(55.71 N, 9.54 E).  At city scale a spherical earth model is accurate to
well under 0.5 %, which is far below the placement uncertainty of a
low-cost sensor node, so we use great-circle (haversine) geometry
throughout instead of a full ellipsoidal model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Mean earth radius in metres (IUGG).
EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 latitude/longitude pair, optionally with altitude.

    Latitude and longitude are in decimal degrees, altitude in metres
    above mean sea level.  Instances are immutable and hashable so they
    can key dictionaries (e.g. sensor-location indexes).
    """

    lat: float
    lon: float
    alt: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_to(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in metres."""
        return haversine_m(self.lat, self.lon, other.lat, other.lon)

    def bearing_to(self, other: "GeoPoint") -> float:
        """Initial bearing towards ``other`` in degrees [0, 360)."""
        return initial_bearing_deg(self.lat, self.lon, other.lat, other.lon)

    def destination(self, bearing_deg: float, distance_m: float) -> "GeoPoint":
        """Point reached travelling ``distance_m`` along ``bearing_deg``."""
        lat, lon = destination_point(self.lat, self.lon, bearing_deg, distance_m)
        return GeoPoint(lat, lon, self.alt)


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon pairs, in metres."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, a)))


def initial_bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial great-circle bearing from point 1 to point 2, degrees [0, 360)."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return (math.degrees(math.atan2(y, x)) + 360.0) % 360.0


def destination_point(
    lat: float, lon: float, bearing_deg: float, distance_m: float
) -> tuple[float, float]:
    """Destination lat/lon after travelling along a great circle."""
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    phi1 = math.radians(lat)
    lam1 = math.radians(lon)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta)
        + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lon2 = (math.degrees(lam2) + 540.0) % 360.0 - 180.0
    return math.degrees(phi2), lon2


#: City centre anchors used by deployment descriptors and examples.
TRONDHEIM = GeoPoint(63.4305, 10.3951)
VEJLE = GeoPoint(55.7113, 9.5357)
