"""Table 1 as code: the external-source catalog.

Each row of the paper's Table 1 ("Examples of external data
integration") becomes a :class:`SourceDescriptor`; the :class:`Catalog`
binds live connectors to descriptors and can verify that all source
classes are covered, and render the table itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import Connector, SourceType


@dataclass(frozen=True)
class SourceDescriptor:
    """One row of Table 1."""

    source_type: SourceType
    type_label: str
    example: str
    description: str


#: The six rows of the paper's Table 1.
TABLE1: tuple[SourceDescriptor, ...] = (
    SourceDescriptor(
        SourceType.OFFICIAL_AIR_QUALITY,
        "Official air quality measurements",
        "NILU data (Norwegian Air Quality Institute)",
        "Ground truth for certain pollution types, grounding and "
        "calibrating measurements to high-quality reference stations",
    ),
    SourceDescriptor(
        SourceType.REMOTE_SENSING,
        "Remote sensing",
        "NASA OCO-2 satellite CO2 measurements",
        "Ground truth top-down measurements for certain emission types, "
        "large-scale coverage, low spatial resolution, coupling to "
        "large-scale modeling and validation",
    ),
    SourceDescriptor(
        SourceType.TRAFFIC_FLOW,
        "Traffic data",
        "Traffic density from here.com",
        "Estimate traffic emissions by correlating continuous external "
        "traffic density to emission measurements",
    ),
    SourceDescriptor(
        SourceType.TRAFFIC_COUNT,
        "Traffic data",
        "Municipal traffic counts",
        "Validate traffic estimations, but only available for short periods",
    ),
    SourceDescriptor(
        SourceType.CITY_MODEL_3D,
        "3D city models",
        "Municipal 3D model of Vejle",
        "Integration into existing visualization tools. Use of city "
        "geometry in future emission modeling",
    ),
    SourceDescriptor(
        SourceType.NATIONAL_STATISTICS,
        "National statistics",
        "GHG emission estimates from national statistics office",
        "Down-scaled national GHG emission data, often with high uncertainties",
    ),
)


class Catalog:
    """Registry binding connectors to Table 1 rows."""

    def __init__(self) -> None:
        self._connectors: dict[SourceType, list[Connector]] = {}

    def register(self, connector: Connector) -> None:
        self._connectors.setdefault(connector.source_type, []).append(connector)

    def connectors(self, source_type: SourceType | None = None) -> list[Connector]:
        if source_type is not None:
            return list(self._connectors.get(source_type, []))
        return [c for group in self._connectors.values() for c in group]

    def covered_types(self) -> set[SourceType]:
        return {t for t, group in self._connectors.items() if group}

    def missing_types(self) -> set[SourceType]:
        """Table 1 rows with no live connector (3D models excluded from
        time-series coverage — they are static geometry)."""
        needed = {d.source_type for d in TABLE1}
        return needed - self.covered_types()


def render_table1(catalog: Catalog | None = None) -> str:
    """Render Table 1 as fixed-width text, optionally with live status."""
    rows = []
    header = ("Type", "Example", "Status" if catalog else "Description")
    for desc in TABLE1:
        if catalog is not None:
            n = len(catalog.connectors(desc.source_type))
            status = f"{n} connector(s)" if n else "NOT CONNECTED"
            rows.append((desc.type_label, desc.example, status))
        else:
            rows.append((desc.type_label, desc.example, desc.description[:48]))
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(3)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(3)))
    return "\n".join(lines)
