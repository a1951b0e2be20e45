"""Harmonization: heterogeneous feeds → one queryable store.

The integration challenge of paper §2.2 in executable form: connectors
deliver observations at wildly different cadences (5 min jam factors,
hourly station averages, 16-day satellite passes, annual statistics) and
geometries (points, swaths, city-wide aggregates).  The harmonizer
writes them all into the TSDB under a uniform ``ext.*`` metric namespace
with provenance tags, where cross-source analytics such as the
CO2-vs-traffic study (Fig. 5) query them like any other series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tsdb import BatchBuilder, TimeSeriesStore
from .base import Connector, Observation

#: External observations live under this metric prefix.
EXT_PREFIX = "ext."


def observation_metric(obs: Observation) -> str:
    """TSDB metric name for an observation (``ext.<quantity>``)."""
    return EXT_PREFIX + obs.quantity


def observation_tags(obs: Observation) -> dict[str, str]:
    """Provenance tags: source, source class, plus segment/station ids."""
    tags = {
        "source": obs.source.replace(":", "_"),
        "stype": obs.source_type.value,
    }
    for key in ("segment", "station_id", "sector"):
        if key in obs.metadata:
            tags[key] = str(obs.metadata[key]).replace(":", "_")
    return tags


@dataclass
class SyncReport:
    """Outcome of one harmonization pass."""

    observations: int = 0
    points_written: int = 0
    per_source: dict[str, int] = field(default_factory=dict)


class Harmonizer:
    """Pulls registered connectors and writes into a TSDB."""

    def __init__(self, db: TimeSeriesStore) -> None:
        self.db = db
        self._connectors: list[Connector] = []

    def register(self, connector: Connector) -> None:
        self._connectors.append(connector)

    @property
    def connectors(self) -> list[Connector]:
        return list(self._connectors)

    def sync(self, start: int, end: int) -> SyncReport:
        """Fetch every connector for [start, end] and persist each
        fetch as one batch."""
        report = SyncReport()
        builder = BatchBuilder()
        for connector in self._connectors:
            observations = connector.fetch(start, end)
            for obs in observations:
                builder.add(
                    observation_metric(obs),
                    obs.timestamp,
                    obs.value,
                    observation_tags(obs),
                )
            self.db.put_batch(builder.build())
            report.observations += len(observations)
            report.points_written += len(observations)
            report.per_source[connector.name] = len(observations)
        return report
