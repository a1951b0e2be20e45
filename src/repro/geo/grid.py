"""Regular lat/lon analysis grids.

Satellite grounding (NASA OCO-2 footprints), emission-field evaluation and
heat-map rendering all need a common "rasterize the city" primitive: a
regular grid over a bounding box with cell-center geometry and
value accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bbox import BoundingBox
from .points import GeoPoint


@dataclass
class Grid:
    """A ``rows x cols`` regular grid over a bounding box.

    Cell (0, 0) is the south-west corner.  Values are accumulated into a
    float array together with a count array so means can be computed for
    unevenly sampled cells (the satellite-grounding use case).
    """

    bbox: BoundingBox
    rows: int
    cols: int
    values: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and column")
        self.values = np.zeros((self.rows, self.cols), dtype=float)
        self.counts = np.zeros((self.rows, self.cols), dtype=int)

    @property
    def cell_height_deg(self) -> float:
        return (self.bbox.north - self.bbox.south) / self.rows

    @property
    def cell_width_deg(self) -> float:
        return (self.bbox.east - self.bbox.west) / self.cols

    def cell_of(self, point: GeoPoint) -> tuple[int, int] | None:
        """Grid cell containing ``point``, or ``None`` if outside the box."""
        if not self.bbox.contains(point):
            return None
        r = int((point.lat - self.bbox.south) / self.cell_height_deg)
        c = int((point.lon - self.bbox.west) / self.cell_width_deg)
        # Points exactly on the north/east edge belong to the last cell.
        return (min(r, self.rows - 1), min(c, self.cols - 1))

    def cell_center(self, row: int, col: int) -> GeoPoint:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"cell out of range: ({row}, {col})")
        lat = self.bbox.south + (row + 0.5) * self.cell_height_deg
        lon = self.bbox.west + (col + 0.5) * self.cell_width_deg
        return GeoPoint(lat, lon)

    def add(self, point: GeoPoint, value: float) -> bool:
        """Accumulate ``value`` into the cell containing ``point``.

        Returns ``False`` (and discards the sample) when the point lies
        outside the grid.
        """
        cell = self.cell_of(point)
        if cell is None:
            return False
        self.values[cell] += value
        self.counts[cell] += 1
        return True

    def mean_field(self) -> np.ndarray:
        """Per-cell mean; cells with no samples are NaN."""
        with np.errstate(invalid="ignore"):
            out = np.where(self.counts > 0, self.values / np.maximum(self.counts, 1), np.nan)
        return out
