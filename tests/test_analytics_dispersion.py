"""Tests for the dispersion model and network field estimation."""

import numpy as np
import pytest

from repro.analytics import (
    GaussianPlume,
    StabilityClass,
    interpolate_field,
)
from repro.geo import BoundingBox, GeoPoint, TRONDHEIM


def make_plume(**overrides):
    defaults = dict(
        source=TRONDHEIM,
        emission_rate_gs=10.0,
        wind_speed_ms=3.0,
        wind_direction_deg=270.0,  # westerly: plume travels east
        stack_height_m=5.0,
        stability="D",
    )
    defaults.update(overrides)
    return GaussianPlume(**defaults)


class TestStabilityClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            StabilityClass.validate("Z")

    def test_sigma_grows_with_distance(self):
        for cls in "ABCDEF":
            assert StabilityClass.sigma_y_m(cls, 2000.0) > StabilityClass.sigma_y_m(
                cls, 200.0
            )

    def test_unstable_disperses_more(self):
        assert StabilityClass.sigma_z_m("A", 1000.0) > StabilityClass.sigma_z_m(
            "F", 1000.0
        )

    def test_from_weather(self):
        assert StabilityClass.from_weather(1.0, 700.0) == "A"  # sunny, calm
        assert StabilityClass.from_weather(1.0, 0.0) == "F"  # clear night, calm
        assert StabilityClass.from_weather(6.0, 0.0) == "D"  # windy night


class TestGaussianPlume:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_plume(wind_speed_ms=0.0)
        with pytest.raises(ValueError):
            make_plume(emission_rate_gs=-1.0)
        with pytest.raises(ValueError):
            make_plume(stability="Q")

    def test_zero_upwind(self):
        plume = make_plume()
        upwind = TRONDHEIM.destination(270.0, 500.0)  # towards the wind
        assert plume.concentration_ugm3(upwind) == 0.0

    def test_positive_downwind(self):
        plume = make_plume()
        downwind = TRONDHEIM.destination(90.0, 500.0)
        assert plume.concentration_ugm3(downwind) > 0.0

    def test_centreline_decays_far_field(self):
        plume = make_plume()
        near = plume.concentration_ugm3(TRONDHEIM.destination(90.0, 500.0))
        far = plume.concentration_ugm3(TRONDHEIM.destination(90.0, 5000.0))
        assert near > far

    def test_crosswind_decay(self):
        plume = make_plume()
        on_axis = plume.concentration_ugm3(TRONDHEIM.destination(90.0, 1000.0))
        off_axis = plume.concentration_ugm3(
            TRONDHEIM.destination(90.0, 1000.0).destination(0.0, 500.0)
        )
        assert on_axis > off_axis

    def test_emission_linearity(self):
        receptor = TRONDHEIM.destination(90.0, 800.0)
        c1 = make_plume(emission_rate_gs=5.0).concentration_ugm3(receptor)
        c2 = make_plume(emission_rate_gs=10.0).concentration_ugm3(receptor)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-9)

    def test_stronger_wind_dilutes(self):
        receptor = TRONDHEIM.destination(90.0, 800.0)
        calm = make_plume(wind_speed_ms=1.5).concentration_ugm3(receptor)
        windy = make_plume(wind_speed_ms=8.0).concentration_ugm3(receptor)
        assert calm > windy

    def test_stable_night_concentrates_plume(self):
        receptor = TRONDHEIM.destination(90.0, 1500.0)
        stable = make_plume(stability="F").concentration_ugm3(receptor)
        unstable = make_plume(stability="A").concentration_ugm3(receptor)
        assert stable > unstable  # poor vertical mixing keeps it near ground

    def test_footprint_grid(self):
        region = BoundingBox.around(TRONDHEIM, 3000.0)
        grid = make_plume().footprint(region, rows=12, cols=12)
        field = grid.mean_field()
        assert np.nanmax(field) > 0.0
        # East half (downwind) carries more mass than west half.
        west = np.nansum(field[:, :6])
        east = np.nansum(field[:, 6:])
        assert east > west * 5.0

    def test_max_impact_distance(self):
        plume = make_plume(emission_rate_gs=50.0, stability="F")
        d_high = plume.max_impact_distance_m(threshold_ugm3=1.0)
        d_low = plume.max_impact_distance_m(threshold_ugm3=100.0)
        assert d_high > d_low > 0.0


class TestFieldInterpolation:
    def sensors(self):
        return {
            "a": (TRONDHEIM, 60.0),
            "b": (TRONDHEIM.destination(90.0, 2000.0), 20.0),
            "c": (TRONDHEIM.destination(180.0, 2000.0), 30.0),
        }

    def region(self):
        return BoundingBox.around(TRONDHEIM, 3000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            interpolate_field({}, self.region())
        with pytest.raises(ValueError):
            interpolate_field(self.sensors(), self.region(), power=0.0)

    def test_field_bounded_by_observations_and_background(self):
        grid = interpolate_field(self.sensors(), self.region())
        field = grid.mean_field()
        assert np.nanmin(field) >= 20.0 - 1e-6
        assert np.nanmax(field) <= 60.0 + 1e-6

    def test_field_peaks_near_hot_sensor(self):
        grid = interpolate_field(self.sensors(), self.region(), rows=15, cols=15)
        hot_cell = grid.cell_of(TRONDHEIM)
        cold_cell = grid.cell_of(TRONDHEIM.destination(90.0, 2000.0))
        field = grid.mean_field()
        assert field[hot_cell] > field[cold_cell]

    def test_far_cells_near_background(self):
        grid = interpolate_field(
            self.sensors(),
            BoundingBox.around(TRONDHEIM, 10_000.0),
            rows=21,
            cols=21,
            background=30.0,
        )
        corner = grid.mean_field()[0, 0]  # ~14 km from the sensors
        assert corner == pytest.approx(30.0, abs=6.0)
