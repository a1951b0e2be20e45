"""Data model of the time-series store.

The paper stores measurements in OpenTSDB; we reproduce its data model:
a *data point* is ``(metric, timestamp, value, tags)`` where tags are a
small string→string map (e.g. ``{"node": "ctt-07", "city": "trondheim"}``)
and a *series* is the unique combination of metric name and tag set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-/]*$")


class InvalidName(ValueError):
    """Metric or tag name violates the allowed character set."""


def validate_name(name: str, what: str = "name") -> str:
    """Validate a metric/tag identifier (OpenTSDB-style character set)."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise InvalidName(f"invalid {what}: {name!r}")
    return name


@dataclass(frozen=True, slots=True)
class SeriesKey:
    """Canonical identity of one time series: metric + sorted tag pairs.

    ``str(key)`` is the canonical text ``metric{k=v,...}`` — what shard
    routing hashes and both durability codecs write — formatted on
    first use and kept on the key (``_text``: not part of its identity,
    so equality, hash and ``repr`` never see it).
    """

    metric: str
    tags: tuple[tuple[str, str], ...]
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def make(cls, metric: str, tags: Mapping[str, str] | None = None) -> "SeriesKey":
        validate_name(metric, "metric")
        items = []
        for k, v in sorted((tags or {}).items()):
            validate_name(k, "tag key")
            validate_name(str(v), "tag value")
            items.append((k, str(v)))
        return cls(metric=metric, tags=tuple(items))

    def tag_dict(self) -> dict[str, str]:
        return dict(self.tags)

    def tag(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.tags:
            if k == key:
                return v
        return default

    def matches(self, tag_filters: Mapping[str, str]) -> bool:
        """True when every filter matches this series' tags.

        Filter values support OpenTSDB-flavoured syntax:

        - ``"*"`` — any value, but the tag key must be present;
        - ``"a|b|c"`` — value must be one of the alternatives;
        - plain string — exact match.
        """
        mine = self.tag_dict()
        for key, pattern in tag_filters.items():
            value = mine.get(key)
            if value is None:
                return False
            if pattern == "*":
                continue
            if "|" in pattern:
                if value not in pattern.split("|"):
                    return False
            elif value != pattern:
                return False
        return True

    def __str__(self) -> str:  # e.g. air.co2{city=trondheim,node=ctt-07}
        text = self._text
        if text is None:
            text = self._format()
            object.__setattr__(self, "_text", text)
        return text

    def _format(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.tags)
        return f"{self.metric}{{{inner}}}" if inner else self.metric


@dataclass(frozen=True, slots=True)
class DataPoint:
    """One observation: where/what (key), when (epoch s), and the value."""

    key: SeriesKey
    timestamp: int
    value: float

    @classmethod
    def make(
        cls,
        metric: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> "DataPoint":
        return cls(SeriesKey.make(metric, tags), int(timestamp), float(value))


#: Canonical CTT metric names used across the ecosystem.
METRIC_CO2 = "air.co2.ppm"
METRIC_NO2 = "air.no2.ugm3"
METRIC_PM10 = "air.pm10.ugm3"
METRIC_PM25 = "air.pm25.ugm3"
METRIC_TEMPERATURE = "weather.temperature.c"
METRIC_PRESSURE = "weather.pressure.hpa"
METRIC_HUMIDITY = "weather.humidity.pct"
METRIC_BATTERY = "node.battery.v"
METRIC_JAM_FACTOR = "traffic.jam_factor"
METRIC_TRAFFIC_COUNT = "traffic.count.vehicles"

ALL_AIR_METRICS = (METRIC_CO2, METRIC_NO2, METRIC_PM10, METRIC_PM25)
ALL_WEATHER_METRICS = (METRIC_TEMPERATURE, METRIC_PRESSURE, METRIC_HUMIDITY)
