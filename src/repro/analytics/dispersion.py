"""Emission distribution and dispersion modelling (paper future work).

"with more data collected, we will be able to tune models for emission
distribution and dispersion to overcome some of the issues and provide
improved analysis with better models."

Two pieces:

- :class:`GaussianPlume` — the standard steady-state Gaussian plume for a
  point source (construction site, factory — the demo's what-if objects),
  with Pasquill-Gifford-style stability-dependent dispersion coefficients;
- :func:`interpolate_field` — city-wide concentration surface estimated
  from the sparse sensor network by inverse-distance weighting with a
  background floor, the "emission distribution" half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geo import BoundingBox, GeoPoint, Grid


class StabilityClass:
    """Pasquill-Gifford stability classes A (very unstable) .. F (stable).

    Coefficients are the standard rural power-law fits
    ``sigma = a * x^b`` with x in km, sigma in m.
    """

    _SIGMA_Y = {
        "A": (213.0, 0.894), "B": (156.0, 0.894), "C": (104.0, 0.894),
        "D": (68.0, 0.894), "E": (50.5, 0.894), "F": (34.0, 0.894),
    }
    _SIGMA_Z = {
        "A": (440.8, 1.941), "B": (106.6, 1.149), "C": (61.0, 0.911),
        "D": (33.2, 0.725), "E": (22.8, 0.678), "F": (14.35, 0.740),
    }

    @classmethod
    def validate(cls, stability: str) -> str:
        if stability not in cls._SIGMA_Y:
            raise ValueError(
                f"stability must be one of {sorted(cls._SIGMA_Y)}: {stability!r}"
            )
        return stability

    @classmethod
    def sigma_y_m(cls, stability: str, downwind_m: float) -> float:
        a, b = cls._SIGMA_Y[cls.validate(stability)]
        return a * max(1e-3, downwind_m / 1000.0) ** b

    @classmethod
    def sigma_z_m(cls, stability: str, downwind_m: float) -> float:
        a, b = cls._SIGMA_Z[cls.validate(stability)]
        return min(5000.0, a * max(1e-3, downwind_m / 1000.0) ** b)

    @classmethod
    def from_weather(cls, wind_speed_ms: float, irradiance_wm2: float) -> str:
        """Rough class from wind and insolation (daytime Turner scheme)."""
        if irradiance_wm2 > 500.0:
            return "A" if wind_speed_ms < 2.0 else ("B" if wind_speed_ms < 5.0 else "C")
        if irradiance_wm2 > 100.0:
            return "B" if wind_speed_ms < 2.0 else ("C" if wind_speed_ms < 5.0 else "D")
        # Night / overcast: stable unless windy.
        return "F" if wind_speed_ms < 2.0 else ("E" if wind_speed_ms < 5.0 else "D")


@dataclass(frozen=True)
class GaussianPlume:
    """Steady-state Gaussian plume from one point source.

    Parameters
    ----------
    source:
        Source location.
    emission_rate_gs:
        Emission rate in g/s.
    wind_speed_ms, wind_direction_deg:
        Transporting wind; direction is meteorological (the direction the
        wind blows *from*, degrees clockwise from north).
    stack_height_m:
        Effective release height.
    stability:
        Pasquill-Gifford class A-F.
    """

    source: GeoPoint
    emission_rate_gs: float
    wind_speed_ms: float
    wind_direction_deg: float
    stack_height_m: float = 5.0
    stability: str = "D"

    def __post_init__(self) -> None:
        if self.emission_rate_gs < 0:
            raise ValueError("emission_rate_gs must be >= 0")
        if self.wind_speed_ms <= 0:
            raise ValueError("wind_speed_ms must be > 0")
        StabilityClass.validate(self.stability)

    def _downwind_crosswind(self, receptor: GeoPoint) -> tuple[float, float]:
        """Receptor position in plume coordinates (x downwind, y crosswind)."""
        distance = self.source.distance_to(receptor)
        if distance == 0.0:
            return 0.0, 0.0
        bearing = self.source.bearing_to(receptor)
        # Wind FROM wd blows TOWARD wd+180; that's the plume axis.
        axis = (self.wind_direction_deg + 180.0) % 360.0
        theta = math.radians(bearing - axis)
        return distance * math.cos(theta), distance * math.sin(theta)

    def concentration_ugm3(self, receptor: GeoPoint, height_m: float = 2.0) -> float:
        """Ground-level-ish concentration at a receptor, µg/m³.

        Standard plume equation with ground reflection; zero upwind.
        """
        x, y = self._downwind_crosswind(receptor)
        if x <= 0.0:
            return 0.0
        sy = StabilityClass.sigma_y_m(self.stability, x)
        sz = StabilityClass.sigma_z_m(self.stability, x)
        q = self.emission_rate_gs * 1e6  # g/s -> µg/s
        u = self.wind_speed_ms
        h = self.stack_height_m
        z = height_m
        lateral = math.exp(-(y**2) / (2.0 * sy**2))
        vertical = math.exp(-((z - h) ** 2) / (2.0 * sz**2)) + math.exp(
            -((z + h) ** 2) / (2.0 * sz**2)
        )
        return q / (2.0 * math.pi * u * sy * sz) * lateral * vertical

    def footprint(self, region: BoundingBox, rows: int = 24, cols: int = 24) -> Grid:
        """Rasterized concentration field over a region."""
        grid = Grid(region, rows=rows, cols=cols)
        for r in range(rows):
            for c in range(cols):
                center = grid.cell_center(r, c)
                grid.add(center, self.concentration_ugm3(center))
        return grid

    def max_impact_distance_m(
        self, threshold_ugm3: float, max_search_m: float = 20_000.0
    ) -> float:
        """Farthest downwind distance where the centreline exceeds the
        threshold (0 when never exceeded)."""
        axis = (self.wind_direction_deg + 180.0) % 360.0
        farthest = 0.0
        for x in np.geomspace(10.0, max_search_m, 120):
            receptor = self.source.destination(axis, float(x))
            if self.concentration_ugm3(receptor) >= threshold_ugm3:
                farthest = float(x)
        return farthest


def interpolate_field(
    sensor_values: dict[str, tuple[GeoPoint, float]],
    region: BoundingBox,
    *,
    rows: int = 24,
    cols: int = 24,
    power: float = 2.0,
    background: float | None = None,
    background_range_m: float = 1500.0,
) -> Grid:
    """Estimate the city-wide concentration surface from sparse sensors.

    Inverse-distance weighting with a pull towards the network median as
    ``background`` far from any sensor — the sensible prior when 12
    sensors must describe a whole city (the paper's density trade-off).
    """
    if not sensor_values:
        raise ValueError("need at least one sensor value")
    if power <= 0:
        raise ValueError("power must be positive")
    values = [v for _, (_, v) in sensor_values.items()]
    bg = background if background is not None else float(np.median(values))
    grid = Grid(region, rows=rows, cols=cols)
    for r in range(rows):
        for c in range(cols):
            center = grid.cell_center(r, c)
            num, den = 0.0, 0.0
            for _, (loc, value) in sensor_values.items():
                d = max(1.0, center.distance_to(loc))
                w = 1.0 / d**power
                num += w * value
                den += w
            # Background prior weighted as a virtual sensor at range.
            w_bg = 1.0 / background_range_m**power
            num += w_bg * bg
            den += w_bg
            grid.add(center, num / den)
    return grid
