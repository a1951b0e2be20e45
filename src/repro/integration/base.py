"""Common observation schema for external data integration.

Paper §2.2: "The sources contain highly heterogeneous data, with
different timescales, measurement frequencies, spatial distributions and
granularities, measurement technologies, and a complex set of related
uncertainties and inaccuracies."  Every connector normalizes its feed
into :class:`Observation` so the harmonization layer and the TSDB writer
can treat all six source classes uniformly — while keeping the
per-source cadence/geometry/uncertainty visible in the record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Protocol

from ..geo import GeoPoint


class SourceType(enum.Enum):
    """Table 1's source taxonomy."""

    OFFICIAL_AIR_QUALITY = "official_air_quality"
    REMOTE_SENSING = "remote_sensing"
    TRAFFIC_FLOW = "traffic_flow"
    TRAFFIC_COUNT = "traffic_count"
    CITY_MODEL_3D = "city_model_3d"
    NATIONAL_STATISTICS = "national_statistics"
    MUNICIPAL_DATA = "municipal_data"


@dataclass(frozen=True)
class Observation:
    """One harmonized observation from any external source.

    ``uncertainty`` is a 1-sigma absolute uncertainty in the same unit as
    ``value``; sources with poorly characterized errors report generous
    values (the national statistics class especially).
    """

    source: str
    source_type: SourceType
    quantity: str  # e.g. "no2_ugm3", "xco2_ppm", "jam_factor"
    timestamp: int
    value: float
    unit: str
    location: GeoPoint | None = None
    uncertainty: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.uncertainty < 0.0:
            raise ValueError(f"uncertainty must be >= 0: {self.uncertainty}")


class Connector(Protocol):
    """Anything that can be asked for observations over a time range."""

    name: str
    source_type: SourceType

    def fetch(self, start: int, end: int) -> list[Observation]:
        """Observations with ``start <= timestamp <= end``, time-ordered."""
        ...

    def cadence_s(self) -> int | None:
        """Nominal sampling period, or None for irregular sources."""
        ...
