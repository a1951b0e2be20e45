"""Tests for repro.geo.bbox and repro.geo.grid."""

import numpy as np
import pytest

from repro.geo import BoundingBox, GeoPoint, Grid, TRONDHEIM


class TestBoundingBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundingBox(south=2.0, west=0.0, north=1.0, east=1.0)
        with pytest.raises(ValueError):
            BoundingBox(south=0.0, west=2.0, north=1.0, east=1.0)

    def test_around_contains_circle(self):
        box = BoundingBox.around(TRONDHEIM, 1000.0)
        for bearing in range(0, 360, 30):
            p = TRONDHEIM.destination(float(bearing), 999.0)
            assert box.contains(p)

    def test_around_is_tight(self):
        box = BoundingBox.around(TRONDHEIM, 1000.0)
        # Corners are sqrt(2) * r away; 3 km is well outside.
        assert not box.contains(TRONDHEIM.destination(0.0, 3000.0))

    def test_of_points(self):
        pts = [GeoPoint(1.0, 1.0), GeoPoint(2.0, 3.0), GeoPoint(0.5, 2.0)]
        box = BoundingBox.of_points(pts)
        assert box.south == 0.5
        assert box.north == 2.0
        assert box.west == 1.0
        assert box.east == 3.0

    def test_of_points_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.of_points([])

    def test_center(self):
        box = BoundingBox(0.0, 0.0, 2.0, 4.0)
        assert box.center.lat == 1.0
        assert box.center.lon == 2.0

    def test_contains_boundary(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert box.contains(GeoPoint(0.0, 0.0))
        assert box.contains(GeoPoint(1.0, 1.0))
        assert not box.contains(GeoPoint(1.0001, 1.0))

    def test_dimensions_positive(self):
        box = BoundingBox.around(TRONDHEIM, 500.0)
        assert box.height_m == pytest.approx(1000.0, rel=0.01)

    def test_expanded(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0).expanded(0.5)
        assert box.south == -0.5
        assert box.east == 1.5


class TestGrid:
    def make(self, rows=4, cols=5):
        return Grid(BoundingBox(0.0, 0.0, 4.0, 5.0), rows=rows, cols=cols)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Grid(BoundingBox(0.0, 0.0, 1.0, 1.0), rows=0, cols=3)

    def test_cell_of_sw_corner(self):
        assert self.make().cell_of(GeoPoint(0.0, 0.0)) == (0, 0)

    def test_cell_of_ne_edge_clamps_to_last_cell(self):
        assert self.make().cell_of(GeoPoint(4.0, 5.0)) == (3, 4)

    def test_cell_of_outside_is_none(self):
        assert self.make().cell_of(GeoPoint(-1.0, 0.0)) is None

    def test_cell_center_round_trip(self):
        g = self.make()
        for r in range(g.rows):
            for c in range(g.cols):
                assert g.cell_of(g.cell_center(r, c)) == (r, c)

    def test_cell_center_out_of_range(self):
        with pytest.raises(IndexError):
            self.make().cell_center(4, 0)

    def test_add_and_mean(self):
        g = self.make()
        assert g.add(GeoPoint(0.5, 0.5), 10.0)
        assert g.add(GeoPoint(0.5, 0.5), 20.0)
        mean = g.mean_field()
        assert mean[0, 0] == 15.0
        assert np.isnan(mean[1, 1])

    def test_add_outside_returns_false(self):
        g = self.make()
        assert not g.add(GeoPoint(10.0, 10.0), 1.0)
        assert g.counts.sum() == 0
