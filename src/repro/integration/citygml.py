"""3D city model: synthetic LOD1 CityGML (Table 1, row 5; paper Fig. 7).

The paper integrates sensor data "into a 3D CityGML model" of Vejle
provided by the municipality.  We cannot ship that proprietary model, so
this module (a) *generates* a statistically plausible LOD1 block model
(extruded rectangular footprints with building heights) around a city
centre, and (b) reads/writes a CityGML-flavoured XML so the Fig. 7
pipeline exercises real GML geometry handling rather than an in-memory
shortcut.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from ..geo import BoundingBox, GeoPoint
from .base import SourceType

GML_NS = "http://www.opengis.net/gml"
BLDG_NS = "http://www.opengis.net/citygml/building/2.0"
CORE_NS = "http://www.opengis.net/citygml/2.0"

ET.register_namespace("gml", GML_NS)
ET.register_namespace("bldg", BLDG_NS)
ET.register_namespace("core", CORE_NS)


@dataclass(frozen=True)
class Building:
    """One LOD1 building: footprint ring + extrusion height."""

    building_id: str
    footprint: tuple[GeoPoint, ...]  # closed implicitly
    height_m: float
    function: str = "residential"

    def __post_init__(self) -> None:
        if len(self.footprint) < 3:
            raise ValueError("footprint needs at least 3 vertices")
        if self.height_m <= 0:
            raise ValueError("height must be positive")

    @property
    def centroid(self) -> GeoPoint:
        lat = sum(p.lat for p in self.footprint) / len(self.footprint)
        lon = sum(p.lon for p in self.footprint) / len(self.footprint)
        return GeoPoint(lat, lon)

    def footprint_area_m2(self) -> float:
        """Shoelace area on a local tangent plane."""
        lat0 = math.radians(self.centroid.lat)
        mx = 111_320.0 * math.cos(lat0)
        my = 110_540.0
        pts = [(p.lon * mx, p.lat * my) for p in self.footprint]
        area = 0.0
        for i in range(len(pts)):
            x1, y1 = pts[i]
            x2, y2 = pts[(i + 1) % len(pts)]
            area += x1 * y2 - x2 * y1
        return abs(area) / 2.0


@dataclass
class CityModel:
    """A set of buildings with provenance metadata."""

    name: str
    buildings: list[Building] = field(default_factory=list)
    source_type: SourceType = SourceType.CITY_MODEL_3D

    def __len__(self) -> int:
        return len(self.buildings)

    def bounds(self) -> BoundingBox:
        points = [p for b in self.buildings for p in b.footprint]
        return BoundingBox.of_points(points)

    def buildings_within(self, point: GeoPoint, radius_m: float) -> list[Building]:
        return [
            b
            for b in self.buildings
            if b.centroid.distance_to(point) <= radius_m
        ]


def generate_city_model(
    name: str,
    center: GeoPoint,
    seed: int = 0,
    *,
    blocks: int = 8,
    buildings_per_block: int = 6,
    block_pitch_m: float = 140.0,
) -> CityModel:
    """Generate a plausible LOD1 block model around ``center``.

    A ``blocks x blocks`` street grid; each block holds a few rectangular
    buildings with log-normal heights (median ~9 m, occasional towers) —
    enough structure for Fig. 7's "sites of air quality monitoring
    according to ... building density" discussion.
    """
    rng = np.random.default_rng(seed)
    model = CityModel(name=name)
    half = blocks / 2.0
    for bx in range(blocks):
        for by in range(blocks):
            # Block origin relative to centre.
            east = (bx - half) * block_pitch_m
            north = (by - half) * block_pitch_m
            for i in range(buildings_per_block):
                off_e = east + float(rng.uniform(10.0, block_pitch_m - 40.0))
                off_n = north + float(rng.uniform(10.0, block_pitch_m - 40.0))
                w = float(rng.uniform(10.0, 28.0))
                d = float(rng.uniform(8.0, 22.0))
                origin = center.destination(90.0, off_e).destination(0.0, off_n)
                corners = (
                    origin,
                    origin.destination(90.0, w),
                    origin.destination(90.0, w).destination(0.0, d),
                    origin.destination(0.0, d),
                )
                height = float(np.exp(rng.normal(2.2, 0.45)))
                model.buildings.append(
                    Building(
                        building_id=f"{name}-b{bx}{by}-{i}",
                        footprint=corners,
                        height_m=round(height, 1),
                        function="commercial" if height > 18.0 else "residential",
                    )
                )
    return model


# ---------------------------------------------------------------------------
# GML serialization
# ---------------------------------------------------------------------------


def write_citygml(model: CityModel) -> str:
    """Serialize a model to CityGML-flavoured XML."""
    root = ET.Element(f"{{{CORE_NS}}}CityModel", {"name": model.name})
    for b in model.buildings:
        member = ET.SubElement(root, f"{{{CORE_NS}}}cityObjectMember")
        bldg = ET.SubElement(
            member, f"{{{BLDG_NS}}}Building", {f"{{{GML_NS}}}id": b.building_id}
        )
        ET.SubElement(bldg, f"{{{BLDG_NS}}}function").text = b.function
        ET.SubElement(bldg, f"{{{BLDG_NS}}}measuredHeight").text = f"{b.height_m}"
        solid = ET.SubElement(bldg, f"{{{BLDG_NS}}}lod1Solid")
        ring = ET.SubElement(solid, f"{{{GML_NS}}}posList")
        coords = []
        for p in b.footprint:
            coords.append(f"{p.lat:.7f} {p.lon:.7f}")
        coords.append(f"{b.footprint[0].lat:.7f} {b.footprint[0].lon:.7f}")
        ring.text = " ".join(coords)
    return ET.tostring(root, encoding="unicode")


class CityGmlError(ValueError):
    """Document is not a readable CityGML model."""


def parse_citygml(text: str) -> CityModel:
    """Inverse of :func:`write_citygml`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CityGmlError(f"malformed XML: {exc}") from None
    if root.tag != f"{{{CORE_NS}}}CityModel":
        raise CityGmlError(f"not a CityModel document: {root.tag}")
    model = CityModel(name=root.get("name", "unnamed"))
    for bldg in root.iter(f"{{{BLDG_NS}}}Building"):
        bid = bldg.get(f"{{{GML_NS}}}id") or "unknown"
        height_el = bldg.find(f"{{{BLDG_NS}}}measuredHeight")
        func_el = bldg.find(f"{{{BLDG_NS}}}function")
        pos_el = bldg.find(f".//{{{GML_NS}}}posList")
        if height_el is None or pos_el is None or not pos_el.text:
            raise CityGmlError(f"building {bid} missing height or geometry")
        values = [float(v) for v in pos_el.text.split()]
        if len(values) % 2 != 0 or len(values) < 8:
            raise CityGmlError(f"building {bid} has a bad posList")
        points = [
            GeoPoint(values[i], values[i + 1]) for i in range(0, len(values), 2)
        ]
        if points[0] == points[-1]:
            points = points[:-1]  # drop the closing vertex
        model.buildings.append(
            Building(
                building_id=bid,
                footprint=tuple(points),
                height_m=float(height_el.text),
                function=func_el.text if func_el is not None and func_el.text else "unknown",
            )
        )
    return model
