"""Tests for the Table 1 external-source connectors."""

import datetime as dt

import numpy as np
import pytest

from repro.geo import BoundingBox, GeoPoint, TRONDHEIM, VEJLE
from repro.integration import (
    Catalog,
    CountingCampaign,
    HereTrafficConnector,
    Municipality,
    MunicipalCountsConnector,
    NationalStatsConnector,
    NiluStation,
    Observation,
    Oco2Connector,
    REPEAT_CYCLE_S,
    SourceType,
    TABLE1,
    intensity_to_jam_factor,
    render_table1,
)
from repro.sensors import RoadSegment, UrbanEnvironment
from repro.simclock import DAY, HOUR, from_datetime


@pytest.fixture
def env():
    return UrbanEnvironment("trondheim", TRONDHEIM, seed=7)


def ts(month=6, day=14, hour=0):
    return from_datetime(dt.datetime(2017, month, day, hour))


class TestObservationSchema:
    def test_uncertainty_validation(self):
        with pytest.raises(ValueError):
            Observation(
                "s", SourceType.TRAFFIC_FLOW, "q", 0, 1.0, "u", uncertainty=-1.0
            )


class TestNilu(object):
    def test_hourly_cadence(self, env):
        station = NiluStation("NO0001", TRONDHEIM, env)
        obs = station.fetch(ts(6, 14, 0), ts(6, 14, 6))
        hours = sorted({o.timestamp for o in obs})
        assert len(hours) == 7
        assert all((h % HOUR) == 0 for h in hours)
        assert station.cadence_s() == HOUR

    def test_publishes_no2_pm_not_co2(self, env):
        station = NiluStation("NO0001", TRONDHEIM, env)
        quantities = {o.quantity for o in station.fetch(ts(), ts(6, 14, 2))}
        assert "no2_ugm3" in quantities
        assert "pm10_ugm3" in quantities
        assert "co2_ppm" not in quantities

    def test_reference_accuracy(self, env):
        """Station readings track the hourly truth far better than a
        low-cost node would (the grounding premise)."""
        station = NiluStation("NO0001", TRONDHEIM, env, seed=3)
        errors = []
        for o in station.fetch(ts(6, 14, 0), ts(6, 15, 0)):
            if o.quantity != "no2_ugm3":
                continue
            truth = np.mean(
                [
                    env.no2_ugm3(o.timestamp + k * 300, TRONDHEIM)
                    for k in range(12)
                ]
            )
            errors.append(abs(o.value - truth))
        assert np.mean(errors) < 2.0

    def test_deterministic(self, env):
        s1 = NiluStation("NO0001", TRONDHEIM, env, seed=3)
        s2 = NiluStation("NO0001", TRONDHEIM, env, seed=3)
        o1 = s1.fetch(ts(), ts(6, 14, 3))
        o2 = s2.fetch(ts(), ts(6, 14, 3))
        assert [o.value for o in o1] == [o.value for o in o2]


class TestOco2:
    def region(self):
        return BoundingBox.around(TRONDHEIM, 8000.0)

    def test_overpass_schedule(self, env):
        sat = Oco2Connector(self.region(), env, seed=1)
        passes = sat.overpass_times(0, 120 * DAY)
        assert len(passes) >= 6
        diffs = np.diff(passes)
        assert all(d == REPEAT_CYCLE_S for d in diffs)

    def test_sparse_and_column_diluted(self, env):
        sat = Oco2Connector(self.region(), env, seed=1, cloud_failure_limit=1.1)
        obs = sat.fetch(0, 64 * DAY)
        assert obs  # some passes retrieved
        xco2 = np.array([o.value for o in obs])
        # Column values sit near the background with small enhancements.
        assert abs(xco2.mean() - 408.0) < 4.0
        assert xco2.std() < 4.0

    def test_cloud_screening_loses_passes(self, env):
        always = Oco2Connector(self.region(), env, seed=1, cloud_failure_limit=1.1)
        screened = Oco2Connector(self.region(), env, seed=1, cloud_failure_limit=0.3)
        n_all = len({o.timestamp for o in always.fetch(0, 200 * DAY)})
        n_scr = len({o.timestamp for o in screened.fetch(0, 200 * DAY)})
        assert n_scr < n_all

    def test_footprints_inside_region(self, env):
        sat = Oco2Connector(self.region(), env, seed=1, cloud_failure_limit=1.1)
        for o in sat.fetch(0, 32 * DAY):
            assert self.region().contains(o.location)


class TestHereTraffic:
    def segments(self):
        return [
            RoadSegment("E6", TRONDHEIM, TRONDHEIM.destination(90.0, 2000.0), 1.0),
            RoadSegment("ring", TRONDHEIM, TRONDHEIM.destination(0.0, 1500.0), 0.6),
        ]

    def test_jam_mapping_monotone(self):
        xs = np.linspace(0.0, 1.0, 20)
        ys = [intensity_to_jam_factor(x) for x in xs]
        assert ys == sorted(ys)
        assert ys[0] == 0.0
        assert ys[-1] == 10.0

    def test_five_minute_updates(self, env):
        feed = HereTrafficConnector(env, self.segments(), seed=1)
        obs = feed.fetch(ts(6, 14, 8), ts(6, 14, 9))
        ticks = sorted({o.timestamp for o in obs})
        assert all(t % 300 == 0 for t in ticks)
        assert len(ticks) == 13

    def test_rush_hour_higher_than_night(self, env):
        feed = HereTrafficConnector(env, self.segments(), seed=1)
        rush = [o.value for o in feed.fetch(ts(6, 14, 8), ts(6, 14, 9))]
        night = [o.value for o in feed.fetch(ts(6, 14, 2), ts(6, 14, 3))]
        assert np.mean(rush) > np.mean(night) + 0.5

    def test_missing_updates_happen(self, env):
        feed = HereTrafficConnector(
            env, self.segments(), seed=1, missing_probability=0.3
        )
        obs = feed.fetch(ts(6, 14, 0), ts(6, 15, 0))
        expected = (24 * 12 + 1) * 2
        assert len(obs) < expected

    def test_requires_segments(self, env):
        with pytest.raises(ValueError):
            HereTrafficConnector(env, [], seed=1)

    def test_bounds(self, env):
        feed = HereTrafficConnector(env, self.segments(), seed=1)
        for o in feed.fetch(ts(6, 14, 0), ts(6, 15, 0)):
            assert 0.0 <= o.value <= 10.0


class TestMunicipalCounts:
    def campaign(self, start, days=14):
        seg = RoadSegment("E6", TRONDHEIM, TRONDHEIM.destination(90.0, 2000.0))
        return CountingCampaign(seg, start, start + days * DAY)

    def test_only_during_campaign(self, env):
        start = ts(6, 1)
        counts = MunicipalCountsConnector(env, [self.campaign(start)], seed=1)
        inside = counts.fetch(start, start + DAY)
        outside = counts.fetch(start + 60 * DAY, start + 61 * DAY)
        assert inside
        assert outside == []

    def test_campaign_validation(self):
        seg = RoadSegment("x", TRONDHEIM, VEJLE)
        with pytest.raises(ValueError):
            CountingCampaign(seg, 100, 100)

    def test_counts_track_rush_hour(self, env):
        start = ts(6, 12)  # Monday
        counts = MunicipalCountsConnector(env, [self.campaign(start)], seed=1)
        obs = counts.fetch(ts(6, 14, 0), ts(6, 14, 23))
        by_hour = {o.timestamp: o.value for o in obs}
        rush = by_hour[ts(6, 14, 8)]
        night = by_hour[ts(6, 14, 2)]
        assert rush > night * 2

    def test_coverage_fraction(self, env):
        start = ts(6, 1)
        counts = MunicipalCountsConnector(env, [self.campaign(start, days=7)], seed=1)
        frac = counts.coverage_fraction(start, start + 14 * DAY)
        assert frac == pytest.approx(0.5, abs=0.01)


class TestNationalStats:
    def muni(self):
        return Municipality(
            "trondheim", population=190_000, national_population=5_250_000
        )

    def test_annual_observations(self):
        conn = NationalStatsConnector(self.muni(), seed=1)
        obs = conn.fetch(ts(1, 1) - DAY, ts(1, 1) + 400 * DAY)
        years = {o.metadata["year"] for o in obs}
        assert 2017 in years
        assert all(o.quantity.startswith("ghg_") for o in obs)

    def test_downscale_magnitude(self):
        conn = NationalStatsConnector(self.muni(), seed=1)
        total, sigma = conn.total_with_uncertainty(2017)
        # ~3.6 % of a 52,000 kt inventory is ~1900 kt.
        assert 1000.0 < total < 3000.0
        assert sigma > 0.15 * total  # "high uncertainties"

    def test_sector_shares_validated(self):
        with pytest.raises(ValueError):
            NationalStatsConnector(
                self.muni(), sectors={"road_transport": 0.5}, seed=1
            )

    def test_proxy_override(self):
        base = NationalStatsConnector(self.muni(), seed=1)
        heavy_traffic = NationalStatsConnector(
            Municipality(
                "trondheim", 190_000, 5_250_000, vehicle_km_share=0.10
            ),
            seed=1,
        )
        b = base.downscale_year(2017)["road_transport"][0]
        h = heavy_traffic.downscale_year(2017)["road_transport"][0]
        assert h > b * 2


class TestCatalog:
    def test_table1_has_six_rows(self):
        assert len(TABLE1) == 6
        types = {d.source_type for d in TABLE1}
        assert SourceType.CITY_MODEL_3D in types

    def test_coverage_tracking(self, env):
        catalog = Catalog()
        assert SourceType.TRAFFIC_FLOW in catalog.missing_types()
        seg = [RoadSegment("E6", TRONDHEIM, TRONDHEIM.destination(90.0, 500.0))]
        catalog.register(NiluStation("NO1", TRONDHEIM, env))
        catalog.register(Oco2Connector(BoundingBox.around(TRONDHEIM, 5000.0), env))
        catalog.register(HereTrafficConnector(env, seg))
        catalog.register(MunicipalCountsConnector(env, []))
        catalog.register(NationalStatsConnector(
            Municipality("t", 190_000, 5_250_000)
        ))
        missing = catalog.missing_types()
        assert missing == {SourceType.CITY_MODEL_3D}

    def test_render_table1(self):
        text = render_table1()
        assert "NILU" in text
        assert "OCO-2" in text
        assert "here.com" in text
        assert len(text.splitlines()) == 8  # header + rule + 6 rows
