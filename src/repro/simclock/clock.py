"""Deterministic simulation clock.

Everything in the reproduction runs on simulated time: sensor sampling,
LoRaWAN airtime, digital-twin timeouts, TSDB timestamps.  The clock is an
integer epoch-seconds counter that only moves when the simulation advances
it, which makes every run reproducible and lets tests fast-forward days of
deployment in milliseconds.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

#: Paper: "historic data saved in our time-series database, collected
#: since January 2017" — the default simulation epoch.
CTT_EPOCH = int(_dt.datetime(2017, 1, 1, tzinfo=_dt.timezone.utc).timestamp())

SECOND = 1
MINUTE = 60
HOUR = 3600
DAY = 86400


class ClockError(RuntimeError):
    """Raised on attempts to move simulated time backwards."""


@dataclass
class SimClock:
    """A monotonically advancing simulated wall clock.

    Parameters
    ----------
    start:
        Initial epoch seconds (defaults to 2017-01-01T00:00Z, the start of
        the CTT historic archive).
    """

    start: int = CTT_EPOCH
    _now: int = field(init=False)

    def __post_init__(self) -> None:
        self._now = int(self.start)

    def now(self) -> int:
        """Current simulated time as epoch seconds."""
        return self._now

    def advance_to(self, timestamp: int) -> int:
        """Jump to an absolute time at or after the current time."""
        if timestamp < self._now:
            raise ClockError(
                f"cannot move backwards: now={self._now}, target={timestamp}"
            )
        self._now = int(timestamp)
        return self._now

    def elapsed(self) -> int:
        """Seconds elapsed since the clock's start."""
        return self._now - int(self.start)

    def datetime(self) -> _dt.datetime:
        """Current time as an aware UTC ``datetime``."""
        return _dt.datetime.fromtimestamp(self._now, tz=_dt.timezone.utc)

    def isoformat(self) -> str:
        return self.datetime().isoformat().replace("+00:00", "Z")


def to_datetime(timestamp: int) -> _dt.datetime:
    """Epoch seconds → aware UTC datetime."""
    return _dt.datetime.fromtimestamp(timestamp, tz=_dt.timezone.utc)


def from_datetime(when: _dt.datetime) -> int:
    """Aware datetime → epoch seconds (naive datetimes are treated as UTC)."""
    if when.tzinfo is None:
        when = when.replace(tzinfo=_dt.timezone.utc)
    return int(when.timestamp())


def hour_of_day(timestamp: int) -> float:
    """Fractional UTC hour of day in [0, 24)."""
    return (timestamp % DAY) / HOUR


def day_of_year(timestamp: int) -> int:
    """1-based day of year."""
    return to_datetime(timestamp).timetuple().tm_yday


def day_of_week(timestamp: int) -> int:
    """ISO weekday minus one: Monday = 0 ... Sunday = 6."""
    return to_datetime(timestamp).weekday()


def is_weekend(timestamp: int) -> bool:
    return day_of_week(timestamp) >= 5


def floor_to(timestamp: int, interval: int) -> int:
    """Largest multiple of ``interval`` not exceeding ``timestamp``."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    return timestamp - (timestamp % interval)
