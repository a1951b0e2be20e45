"""Tests for repro.geo.points."""

import math

import pytest

from repro.geo import (
    EARTH_RADIUS_M,
    TRONDHEIM,
    VEJLE,
    GeoPoint,
    destination_point,
    haversine_m,
    initial_bearing_deg,
)


class TestGeoPoint:
    def test_construction(self):
        p = GeoPoint(63.43, 10.40, 5.0)
        assert p.lat == 63.43
        assert p.lon == 10.40
        assert p.alt == 5.0

    def test_latitude_out_of_range(self):
        with pytest.raises(ValueError, match="latitude"):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError, match="latitude"):
            GeoPoint(-90.1, 0.0)

    def test_longitude_out_of_range(self):
        with pytest.raises(ValueError, match="longitude"):
            GeoPoint(0.0, 180.5)

    def test_poles_and_antimeridian_are_valid(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)

    def test_hashable(self):
        assert len({GeoPoint(1.0, 2.0), GeoPoint(1.0, 2.0)}) == 1

    def test_distance_to_self_is_zero(self):
        assert TRONDHEIM.distance_to(TRONDHEIM) == 0.0


class TestHaversine:
    def test_known_distance_trondheim_vejle(self):
        # Trondheim to Vejle is roughly 860 km.
        d = TRONDHEIM.distance_to(VEJLE)
        assert 820_000 < d < 900_000

    def test_symmetry(self):
        assert haversine_m(63.4, 10.4, 55.7, 9.5) == pytest.approx(
            haversine_m(55.7, 9.5, 63.4, 10.4)
        )

    def test_one_degree_latitude(self):
        # One degree of latitude is ~111.2 km on a sphere.
        d = haversine_m(0.0, 0.0, 1.0, 0.0)
        assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0, rel=1e-9)

    def test_small_distance_accuracy(self):
        # 100 m north of Trondheim centre.
        p = TRONDHEIM.destination(0.0, 100.0)
        assert TRONDHEIM.distance_to(p) == pytest.approx(100.0, abs=0.01)

    def test_antipodal(self):
        d = haversine_m(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-6)


class TestBearing:
    def test_due_north(self):
        assert initial_bearing_deg(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0)

    def test_due_east(self):
        assert initial_bearing_deg(0.0, 0.0, 0.0, 1.0) == pytest.approx(90.0)

    def test_due_south(self):
        assert initial_bearing_deg(1.0, 0.0, 0.0, 0.0) == pytest.approx(180.0)

    def test_range(self):
        b = initial_bearing_deg(63.4, 10.4, 55.7, 9.5)
        assert 0.0 <= b < 360.0


class TestDestination:
    def test_round_trip_distance(self):
        dest = TRONDHEIM.destination(45.0, 5000.0)
        assert TRONDHEIM.distance_to(dest) == pytest.approx(5000.0, rel=1e-6)

    def test_zero_distance(self):
        lat, lon = destination_point(63.4, 10.4, 123.0, 0.0)
        assert lat == pytest.approx(63.4)
        assert lon == pytest.approx(10.4)

    def test_longitude_normalized(self):
        lat, lon = destination_point(0.0, 179.9, 90.0, 50_000.0)
        assert -180.0 <= lon <= 180.0

    def test_preserves_altitude(self):
        p = GeoPoint(63.4, 10.4, alt=12.0).destination(0.0, 100.0)
        assert p.alt == 12.0
