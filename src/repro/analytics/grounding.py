"""Satellite measurement grounding (paper §2.1: "satellite measurement
grounding" is one of the analyses connected to the data processing).

OCO-2 provides sparse, column-averaged XCO2; the ground network provides
dense surface CO2.  Grounding means reconciling the two: at each usable
overpass, compare the network's surface *enhancement* over background
with the satellite's column enhancement, estimate the effective column
dilution factor, and flag overpasses where the two disagree beyond their
combined uncertainty (either a network calibration problem or a
retrieval outlier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..integration.oco2 import Oco2Connector
from ..tsdb import METRIC_CO2, Query, TimeSeriesStore


@dataclass(frozen=True)
class OverpassComparison:
    """Network vs satellite at one overpass."""

    overpass: int
    network_surface_ppm: float
    network_enhancement_ppm: float
    satellite_xco2_ppm: float
    satellite_enhancement_ppm: float
    n_soundings: int
    implied_dilution: float  # surface enhancement / column enhancement
    consistent: bool


@dataclass(frozen=True)
class GroundingReport:
    """All usable overpasses in a window."""

    comparisons: tuple[OverpassComparison, ...]
    background_ppm: float
    mean_implied_dilution: float
    consistent_fraction: float

    def __len__(self) -> int:
        return len(self.comparisons)


def ground_against_satellite(
    db: TimeSeriesStore,
    satellite: Oco2Connector,
    city_tag: str,
    start: int,
    end: int,
    *,
    background_ppm: float | None = None,
    window_s: int = 3600,
    consistency_sigma: float = 3.0,
) -> GroundingReport:
    """Compare the stored network CO2 with satellite soundings.

    For each cloud-free overpass in [start, end], the network surface
    value is the city-mean CO2 within ±``window_s`` of the overpass.
    Background defaults to the 10th percentile of the whole network
    series over the window (a standard enhancement baseline).
    """
    res = db.run(
        Query(METRIC_CO2, int(start), int(end), tags={"city": city_tag})
    ).single()
    if len(res) < 10:
        raise ValueError("not enough network CO2 data in the window")
    if background_ppm is None:
        background_ppm = float(np.percentile(res.values, 10.0))

    comparisons: list[OverpassComparison] = []
    for overpass in satellite.overpass_times(start, end):
        soundings = satellite.fetch(overpass, overpass)
        if not soundings:
            continue  # cloud-screened
        xco2 = float(np.mean([o.value for o in soundings]))
        xco2_sigma = float(
            np.mean([o.uncertainty for o in soundings])
            / max(1.0, np.sqrt(len(soundings)))
        )
        mask = (res.timestamps >= overpass - window_s) & (
            res.timestamps <= overpass + window_s
        )
        if not mask.any():
            continue
        surface = float(np.mean(res.values[mask]))
        surf_enh = surface - background_ppm
        sat_enh = xco2 - satellite.environment.field.CO2_BACKGROUND_PPM
        implied = surf_enh / sat_enh if abs(sat_enh) > 1e-9 else float("inf")
        # Consistency: the column enhancement must be small and of the
        # same sign region as the surface enhancement within noise.
        expected_sat_enh = surf_enh / 30.0  # nominal column dilution
        consistent = abs(sat_enh - expected_sat_enh) <= consistency_sigma * max(
            xco2_sigma, 0.1
        )
        comparisons.append(
            OverpassComparison(
                overpass=overpass,
                network_surface_ppm=surface,
                network_enhancement_ppm=surf_enh,
                satellite_xco2_ppm=xco2,
                satellite_enhancement_ppm=sat_enh,
                n_soundings=len(soundings),
                implied_dilution=implied,
                consistent=consistent,
            )
        )
    finite_dilutions = [
        c.implied_dilution
        for c in comparisons
        if np.isfinite(c.implied_dilution) and c.implied_dilution > 0
    ]
    return GroundingReport(
        comparisons=tuple(comparisons),
        background_ppm=background_ppm,
        mean_implied_dilution=float(np.mean(finite_dilutions))
        if finite_dilutions
        else float("nan"),
        consistent_fraction=(
            sum(c.consistent for c in comparisons) / len(comparisons)
            if comparisons
            else float("nan")
        ),
    )
