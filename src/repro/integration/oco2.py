"""NASA OCO-2 satellite CO2 (Table 1, row 2).

"Ground truth top-down measurements for certain emission types,
large-scale coverage, low spatial resolution."

OCO-2 flies a sun-synchronous orbit (98.8-minute period, ~13:36 local
overpass time) with a 16-day ground-track repeat.  Over one city this
yields a usable overpass every ~16 days, weather permitting: cloudy
scenes fail XCO2 retrieval.  Each pass produces a narrow swath of
footprints (~1.3 x 2.25 km) crossing the region roughly north-south,
reporting *column-averaged* CO2 (XCO2), where the urban surface
enhancement is diluted to ~1/30 of its surface magnitude.
"""

from __future__ import annotations

import numpy as np

from ..geo import BoundingBox, GeoPoint
from ..sensors.environment import UrbanEnvironment
from ..simclock import DAY, HOUR
from .base import Observation, SourceType

#: Ground-track repeat cycle.
REPEAT_CYCLE_S = 16 * DAY
#: Column dilution: surface enhancement / XCO2 enhancement.
COLUMN_DILUTION = 30.0
#: Single-sounding retrieval precision (1 sigma, ppm).
SOUNDING_SIGMA_PPM = 0.8
#: Along-track footprint spacing (m).
FOOTPRINT_SPACING_M = 2250.0


class Oco2Connector:
    """Synthetic OCO-2 XCO2 soundings over one city region."""

    source_type = SourceType.REMOTE_SENSING

    def __init__(
        self,
        region: BoundingBox,
        environment: UrbanEnvironment,
        seed: int = 0,
        first_overpass: int = 11 * DAY + 13 * HOUR,  # arbitrary epoch phase
        cloud_failure_limit: float = 0.55,
    ) -> None:
        self.name = "nasa:oco2"
        self.region = region
        self.environment = environment
        self._rng_seed = seed
        self.first_overpass = first_overpass
        self.cloud_failure_limit = cloud_failure_limit

    def cadence_s(self) -> None:
        return None  # irregular: overpasses +/- cloud losses

    def overpass_times(self, start: int, end: int) -> list[int]:
        """All overpass instants in [start, end] (before cloud screening)."""
        if end < start:
            return []
        n0 = max(0, (start - self.first_overpass + REPEAT_CYCLE_S - 1) // REPEAT_CYCLE_S)
        out = []
        t = self.first_overpass + n0 * REPEAT_CYCLE_S
        while t <= end:
            if t >= start:
                out.append(int(t))
            t += REPEAT_CYCLE_S
        return out

    def _swath(self, overpass: int) -> list[GeoPoint]:
        """Footprint centres of one pass: a near-N/S line across the box."""
        rng = np.random.default_rng([self._rng_seed, overpass & 0xFFFFFFFF])
        # Swath crosses at a random longitude within the region.
        lon = float(rng.uniform(self.region.west, self.region.east))
        n = max(2, int(self.region.height_m / FOOTPRINT_SPACING_M))
        lats = np.linspace(self.region.south, self.region.north, n)
        # Slight eastward tilt of the ground track.
        tilt = (self.region.east - self.region.west) * 0.05
        lons = lon + np.linspace(-tilt, tilt, n)
        lons = np.clip(lons, self.region.west, self.region.east)
        return [GeoPoint(float(a), float(o)) for a, o in zip(lats, lons)]

    def fetch(self, start: int, end: int) -> list[Observation]:
        out: list[Observation] = []
        for overpass in self.overpass_times(start, end):
            cloud = self.environment.weather.cloud_cover(overpass)
            if cloud > self.cloud_failure_limit:
                continue  # retrieval fails in cloudy scenes
            rng = np.random.default_rng(
                [self._rng_seed, 7, overpass & 0xFFFFFFFF]
            )
            background = self.environment.field.CO2_BACKGROUND_PPM
            for footprint in self._swath(overpass):
                surface = self.environment.co2_ppm(overpass, footprint)
                enhancement = (surface - background) / COLUMN_DILUTION
                xco2 = (
                    background
                    + enhancement
                    + float(rng.normal(0.0, SOUNDING_SIGMA_PPM))
                )
                out.append(
                    Observation(
                        source=self.name,
                        source_type=self.source_type,
                        quantity="xco2_ppm",
                        timestamp=overpass,
                        value=xco2,
                        unit="ppm",
                        location=footprint,
                        uncertainty=SOUNDING_SIGMA_PPM,
                        metadata={"cloud_cover": round(cloud, 3)},
                    )
                )
        return out
