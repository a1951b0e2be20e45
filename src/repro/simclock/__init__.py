"""Deterministic simulation time: clock, event scheduler, solar model."""

from .clock import (
    CTT_EPOCH,
    DAY,
    HOUR,
    MINUTE,
    SECOND,
    ClockError,
    SimClock,
    day_of_week,
    day_of_year,
    floor_to,
    from_datetime,
    hour_of_day,
    is_weekend,
    to_datetime,
)
from .scheduler import EventHandle, Scheduler
from .sun import (
    solar_declination_deg,
    solar_elevation_deg,
    solar_irradiance_wm2,
)

__all__ = [
    "CTT_EPOCH",
    "ClockError",
    "DAY",
    "EventHandle",
    "HOUR",
    "MINUTE",
    "SECOND",
    "Scheduler",
    "SimClock",
    "day_of_week",
    "day_of_year",
    "floor_to",
    "from_datetime",
    "hour_of_day",
    "is_weekend",
    "solar_declination_deg",
    "solar_elevation_deg",
    "solar_irradiance_wm2",
    "to_datetime",
]
