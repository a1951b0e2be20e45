"""Tests for the CityGML model and the harmonization layer."""

import datetime as dt

import numpy as np
import pytest

from repro.geo import GeoPoint, TRONDHEIM, VEJLE
from repro.integration import (
    Building,
    CityGmlError,
    Harmonizer,
    HereTrafficConnector,
    NiluStation,
    generate_city_model,
    parse_citygml,
    write_citygml,
)
from repro.sensors import RoadSegment, UrbanEnvironment
from repro.simclock import DAY, HOUR, from_datetime
from repro.tsdb import TSDB, Query


def ts(month=6, day=14, hour=0):
    return from_datetime(dt.datetime(2017, month, day, hour))


class TestCityModel:
    def test_generation_deterministic(self):
        m1 = generate_city_model("vejle", VEJLE, seed=5)
        m2 = generate_city_model("vejle", VEJLE, seed=5)
        assert len(m1) == len(m2)
        assert m1.buildings[0].height_m == m2.buildings[0].height_m

    def test_generation_size(self):
        model = generate_city_model("vejle", VEJLE, seed=5, blocks=4,
                                    buildings_per_block=3)
        assert len(model) == 4 * 4 * 3

    def test_heights_plausible(self):
        model = generate_city_model("vejle", VEJLE, seed=5)
        heights = [b.height_m for b in model.buildings]
        assert 3.0 < np.median(heights) < 15.0
        assert max(heights) < 80.0

    def test_building_validation(self):
        with pytest.raises(ValueError):
            Building("x", (VEJLE, VEJLE), 10.0)
        with pytest.raises(ValueError):
            Building("x", (VEJLE, VEJLE.destination(0, 10),
                           VEJLE.destination(90, 10)), -1.0)

    def test_footprint_area(self):
        origin = VEJLE
        square = (
            origin,
            origin.destination(90.0, 20.0),
            origin.destination(90.0, 20.0).destination(0.0, 10.0),
            origin.destination(0.0, 10.0),
        )
        b = Building("sq", square, 5.0)
        assert b.footprint_area_m2() == pytest.approx(200.0, rel=0.02)

    def test_buildings_within(self):
        model = generate_city_model("vejle", VEJLE, seed=5)
        near = model.buildings_within(VEJLE, 200.0)
        far = model.buildings_within(VEJLE, 2000.0)
        assert 0 < len(near) < len(far) <= len(model)

    def test_bounds_contain_center(self):
        model = generate_city_model("vejle", VEJLE, seed=5)
        assert model.bounds().contains(VEJLE)


class TestCityGmlRoundTrip:
    def test_round_trip(self):
        model = generate_city_model("vejle", VEJLE, seed=5, blocks=3,
                                    buildings_per_block=2)
        text = write_citygml(model)
        restored = parse_citygml(text)
        assert restored.name == "vejle"
        assert len(restored) == len(model)
        for a, b in zip(model.buildings, restored.buildings):
            assert a.building_id == b.building_id
            assert a.height_m == pytest.approx(b.height_m)
            assert a.function == b.function
            assert len(a.footprint) == len(b.footprint)
            assert a.centroid.distance_to(b.centroid) < 0.5

    def test_malformed_xml_rejected(self):
        with pytest.raises(CityGmlError):
            parse_citygml("<not-closed")

    def test_wrong_root_rejected(self):
        with pytest.raises(CityGmlError):
            parse_citygml("<foo/>")

    def test_missing_geometry_rejected(self):
        text = (
            '<core:CityModel xmlns:core="http://www.opengis.net/citygml/2.0" '
            'xmlns:bldg="http://www.opengis.net/citygml/building/2.0">'
            "<core:cityObjectMember><bldg:Building>"
            "<bldg:measuredHeight>5</bldg:measuredHeight>"
            "</bldg:Building></core:cityObjectMember></core:CityModel>"
        )
        with pytest.raises(CityGmlError):
            parse_citygml(text)


class TestHarmonizer:
    def make(self):
        env = UrbanEnvironment("trondheim", TRONDHEIM, seed=7)
        db = TSDB()
        h = Harmonizer(db)
        segments = [
            RoadSegment("E6", TRONDHEIM, TRONDHEIM.destination(90.0, 1500.0))
        ]
        h.register(NiluStation("NO1", TRONDHEIM, env, seed=2))
        h.register(HereTrafficConnector(env, segments, seed=3))
        return env, db, h

    def test_sync_writes_all_sources(self):
        env, db, h = self.make()
        report = h.sync(ts(6, 14, 0), ts(6, 14, 6))
        assert report.observations > 0
        assert set(report.per_source) == {"nilu:NO1", "here:traffic"}
        assert "ext.no2_ugm3" in db.metrics()
        assert "ext.jam_factor" in db.metrics()

    def test_provenance_tags(self):
        env, db, h = self.make()
        h.sync(ts(6, 14, 0), ts(6, 14, 2))
        sources = db.suggest_tag_values("ext.no2_ugm3", "source")
        assert sources == ["nilu_NO1"]
        stypes = db.suggest_tag_values("ext.jam_factor", "stype")
        assert stypes == ["traffic_flow"]

    def test_correlation_no2_traffic_positive(self):
        """NO2 is traffic-dominated in the environment model, so the
        harmonized series must show a clear positive correlation (unlike
        CO2 in Fig. 5)."""
        env, db, h = self.make()
        h.sync(ts(6, 12, 0), ts(6, 16, 0))  # four weekdays
        no2, jam = (
            db.run(
                Query(metric, ts(6, 12, 0), ts(6, 16, 0), tags=tags,
                      downsample="1h-avg-linear")
            ).single()
            for metric, tags in (
                ("ext.no2_ugm3", {"source": "nilu_NO1"}),
                ("ext.jam_factor", {}),
            )
        )
        _, i, j = np.intersect1d(no2.timestamps, jam.timestamps, return_indices=True)
        assert i.size > 80
        assert np.corrcoef(no2.values[i], jam.values[j])[0, 1] > 0.35
