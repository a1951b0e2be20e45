"""Axis-aligned geographic bounding boxes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .points import GeoPoint, haversine_m


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """A lat/lon axis-aligned box ``[south, north] x [west, east]``.

    Boxes never wrap the antimeridian; the CTT pilot regions are far from
    it, and refusing wrap keeps containment checks trivial.
    """

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        if self.south > self.north:
            raise ValueError("south must be <= north")
        if self.west > self.east:
            raise ValueError("west must be <= east (no antimeridian wrap)")

    @classmethod
    def around(cls, center: GeoPoint, radius_m: float) -> "BoundingBox":
        """Smallest box containing the circle of ``radius_m`` around ``center``."""
        north = center.destination(0.0, radius_m)
        east = center.destination(90.0, radius_m)
        south = center.destination(180.0, radius_m)
        west = center.destination(270.0, radius_m)
        return cls(south=south.lat, west=west.lon, north=north.lat, east=east.lon)

    @classmethod
    def of_points(cls, points: Iterable[GeoPoint], pad_deg: float = 0.0) -> "BoundingBox":
        """Tight box around ``points``, optionally padded by ``pad_deg``."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot bound an empty point set")
        lats = [p.lat for p in pts]
        lons = [p.lon for p in pts]
        return cls(
            south=min(lats) - pad_deg,
            west=min(lons) - pad_deg,
            north=max(lats) + pad_deg,
            east=max(lons) + pad_deg,
        )

    @property
    def center(self) -> GeoPoint:
        return GeoPoint((self.south + self.north) / 2.0, (self.west + self.east) / 2.0)

    @property
    def height_m(self) -> float:
        return haversine_m(self.south, self.west, self.north, self.west)

    def contains(self, point: GeoPoint) -> bool:
        return (
            self.south <= point.lat <= self.north
            and self.west <= point.lon <= self.east
        )

    def expanded(self, pad_deg: float) -> "BoundingBox":
        return BoundingBox(
            south=self.south - pad_deg,
            west=self.west - pad_deg,
            north=self.north + pad_deg,
            east=self.east + pad_deg,
        )
