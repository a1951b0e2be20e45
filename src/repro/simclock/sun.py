"""Approximate solar position and daylight model.

Fig. 4 of the paper analyses battery charging: solar panels charge
"during daytime, and [charging] is affected by weather conditions", and
the right-hand panel flags whether a node "could have been charged by
sunlight since the previous package".  Reproducing that needs solar
elevation as a function of date, time and latitude — at
Trondheim's 63.4 N the day length swings from ~4.5 h in December to ~20.5 h
in June, which dominates the battery dynamics.

We use the standard low-precision solar declination / hour-angle
formulas (accurate to a fraction of a degree — ample for energy
modelling).
"""

from __future__ import annotations

import math

from .clock import day_of_year, hour_of_day


def solar_declination_deg(timestamp: int) -> float:
    """Solar declination in degrees for the given instant."""
    n = day_of_year(timestamp)
    # Cooper's equation; +10 shifts so the minimum falls near Dec 21.
    return -23.44 * math.cos(math.radians(360.0 / 365.0 * (n + 10)))


def solar_elevation_deg(timestamp: int, lat: float, lon: float) -> float:
    """Solar elevation above the horizon, degrees (negative at night).

    Uses local solar time derived from longitude (1 h per 15 deg); the
    equation of time (< ~17 min) is ignored, which is well inside the
    cloud-cover uncertainty of the energy model.
    """
    decl = math.radians(solar_declination_deg(timestamp))
    solar_hour = (hour_of_day(timestamp) + lon / 15.0) % 24.0
    hour_angle = math.radians(15.0 * (solar_hour - 12.0))
    phi = math.radians(lat)
    sin_elev = math.sin(phi) * math.sin(decl) + math.cos(phi) * math.cos(
        decl
    ) * math.cos(hour_angle)
    return math.degrees(math.asin(max(-1.0, min(1.0, sin_elev))))


def solar_irradiance_wm2(
    timestamp: int, lat: float, lon: float, cloud_cover: float = 0.0
) -> float:
    """Global horizontal irradiance estimate in W/m2.

    A clear-sky model attenuated by cloud cover in [0, 1]:
    ``GHI ≈ 1120 * sin(elev)^1.15 * (1 - 0.75 * cloud^3.4)``
    (Kasten & Czeplak cloud attenuation).  Returns 0 at night.
    """
    if not 0.0 <= cloud_cover <= 1.0:
        raise ValueError(f"cloud_cover must be in [0, 1]: {cloud_cover}")
    elev = solar_elevation_deg(timestamp, lat, lon)
    if elev <= 0.0:
        return 0.0
    clear = 1120.0 * math.sin(math.radians(elev)) ** 1.15
    return clear * (1.0 - 0.75 * cloud_cover**3.4)
