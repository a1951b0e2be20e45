"""Tests for battery analysis (Fig. 4), CO2 dynamics (Fig. 5), AQI, patterns."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analytics import (
    anomalous_days,
    band,
    battery_deltas,
    caqi,
    charge_balance,
    correlation_study,
    diurnal_comparison,
    estimate_depletion,
    factor_attribution,
    sub_index,
    weekly_profile,
)
from repro.geo import TRONDHEIM
from repro.sensors import UrbanEnvironment
from repro.simclock import DAY, HOUR, from_datetime

TRD_LAT, TRD_LON = TRONDHEIM.lat, TRONDHEIM.lon


def april_start():
    return from_datetime(dt.datetime(2017, 4, 10))


def make_battery_series(days=3):
    """Synthetic day/night sawtooth: charges 10-16h, drains otherwise."""
    start = april_start()
    ts, volts = [], []
    v = 3.8
    for k in range(days * 24 * 12):
        t = start + k * 300
        hour = ((t % 86400) / 3600 + TRD_LON / 15.0) % 24.0
        v += 0.002 if 10.0 <= hour <= 16.0 else -0.0006
        v = min(4.2, max(3.0, v))
        ts.append(t)
        volts.append(v)
    return np.array(ts), np.array(volts)


class TestBatteryAnalysis:
    def test_deltas_have_flags(self):
        ts, v = make_battery_series()
        deltas = battery_deltas(ts, v, TRD_LAT, TRD_LON)
        assert len(deltas) == len(ts) - 1
        flags = {d.could_have_charged for d in deltas}
        assert flags == {True, False}  # both day and night present

    def test_charging_concentrated_in_sunlit_hours(self):
        ts, v = make_battery_series()
        balance = charge_balance(battery_deltas(ts, v, TRD_LAT, TRD_LON))
        assert balance.charging_works
        assert balance.mean_delta_sunlit_v > 0.0
        assert balance.mean_delta_dark_v < 0.0

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            battery_deltas(np.arange(5), np.arange(4.0), TRD_LAT, TRD_LON)

    def test_depletion_finite_when_draining(self):
        start = april_start()
        ts = np.arange(start, start + 2 * DAY, 300)
        v = 4.0 - (ts - start) / DAY * 0.1  # pure drain: 0.1 V/day
        est = estimate_depletion(ts, v, TRD_LAT, TRD_LON)
        assert est.days_to_empty == pytest.approx((v[-1] - 3.3) / 0.1, rel=0.05)

    def test_depletion_infinite_when_net_positive(self):
        ts, v = make_battery_series()
        est = estimate_depletion(ts, v, TRD_LAT, TRD_LON)
        assert est.days_to_empty == float("inf")

    def test_depletion_needs_data(self):
        with pytest.raises(ValueError):
            estimate_depletion(
                np.array([0]), np.array([4.0]), TRD_LAT, TRD_LON
            )


@pytest.fixture(scope="module")
def week_of_data():
    """A week of aligned CO2 / jam / weather series from the environment."""
    env = UrbanEnvironment("trondheim", TRONDHEIM, seed=7)
    start = april_start()
    ts = np.arange(start, start + 7 * DAY, 300, dtype=np.int64)
    co2 = np.array([env.co2_ppm(int(t), TRONDHEIM) for t in ts])
    jam = np.array([env.traffic(int(t)) * 10.0 for t in ts])
    wind = np.array([env.weather.wind_speed_ms(int(t)) for t in ts])
    temp = np.array([env.weather.temperature_c(int(t)) for t in ts])
    hum = np.array([env.weather.humidity_pct(int(t)) for t in ts])
    return ts, co2, jam, wind, temp, hum


class TestCo2Dynamics:
    def test_no_apparent_correlation(self, week_of_data):
        """Fig. 5's headline: CO2 and jam factor do not track each other."""
        ts, co2, jam, *_ = week_of_data
        study = correlation_study(co2, jam, cadence_s=300)
        assert study.no_apparent_correlation
        assert abs(study.pearson_r) < 0.5

    def test_lag_scan_does_not_rescue_traffic(self, week_of_data):
        """Within physically meaningful transport lags (<= 2 h) traffic
        still fails to predict CO2.  (Beyond that, any two diurnal
        signals can be phase-aligned into spurious correlation, which is
        why the scan is bounded.)"""
        ts, co2, jam, *_ = week_of_data
        study = correlation_study(co2, jam, cadence_s=300, max_lag_s=2 * HOUR)
        assert abs(study.best_lag_r) < 0.5

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            correlation_study(np.ones(20), np.ones(19), 300)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            correlation_study(np.ones(5), np.ones(5), 300)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 7.25])] * 2),
            min_size=10,
            max_size=80,
        )
    )
    def test_spearman_averages_tied_ranks_like_scipy(self, pairs):
        stats = pytest.importorskip("scipy.stats")
        x, y = (np.array(col) for col in zip(*pairs))
        assume(np.unique(x).size > 1 and np.unique(y).size > 1)
        study = correlation_study(x, y, cadence_s=1, max_lag_s=0)
        assert study.spearman_rho == pytest.approx(
            stats.spearmanr(x, y).statistic, abs=1e-12
        )
        assert study.pearson_r == pytest.approx(
            stats.pearsonr(x, y).statistic, abs=1e-12
        )

    def test_factor_attribution_shows_complex_dynamics(self, week_of_data):
        """Adding weather + daily harmonics must explain much more
        variance than traffic alone (the paper's conclusion)."""
        ts, co2, jam, wind, temp, hum = week_of_data
        result = factor_attribution(
            co2,
            {
                "jam_factor": jam,
                "wind_speed": wind,
                "temperature": temp,
                "humidity": hum,
            },
            ts,
        )
        assert result.r2_traffic_only < 0.3
        assert result.r2_full > result.r2_traffic_only + 0.2
        assert result.complex_dynamics

    def test_factor_attribution_requires_jam(self, week_of_data):
        ts, co2, *_ = week_of_data
        with pytest.raises(ValueError):
            factor_attribution(co2, {"wind": co2}, ts)

    def test_diurnal_patterns_differ(self, week_of_data):
        """Fig. 5's visual: the two daily patterns peak at different
        hours (CO2 pre-dawn from respiration/inversion; traffic at rush
        hour)."""
        ts, co2, jam, *_ = week_of_data
        comp = diurnal_comparison(co2, jam, ts)
        assert comp.co2_peak_hour != comp.jam_peak_hour
        # Traffic double peak lands morning or evening rush.
        assert comp.jam_peak_hour in (7, 8, 9, 15, 16, 17)
        assert comp.profile_correlation < 0.5


class TestAqi:
    def test_sub_index_interpolates(self):
        assert sub_index("no2_ugm3", 0.0) == 0.0
        assert sub_index("no2_ugm3", 50.0) == 25.0
        assert sub_index("no2_ugm3", 75.0) == pytest.approx(37.5)

    def test_sub_index_extrapolates_above_top(self):
        assert sub_index("no2_ugm3", 500.0) > 100.0

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            sub_index("co2_ppm", 400.0)

    def test_bands(self):
        assert band(10.0) == "very_low"
        assert band(60.0) == "medium"
        assert band(150.0) == "very_high"

    def test_caqi_takes_worst_pollutant(self):
        result = caqi({"no2_ugm3": 10.0, "pm10_ugm3": 60.0, "pm25_ugm3": 5.0})
        assert result.dominant == "pm10_ugm3"
        assert result.band == "medium"
        assert result.sub_indices["no2_ugm3"] == 5.0

    def test_caqi_ignores_unknown_keys(self):
        result = caqi({"no2_ugm3": 40.0, "co2_ppm": 420.0, "battery_v": 3.9})
        assert result.dominant == "no2_ugm3"

    def test_caqi_requires_some_pollutant(self):
        with pytest.raises(ValueError):
            caqi({"co2_ppm": 400.0})


class TestPatterns:
    def test_weekly_profile_shape(self, week_of_data):
        ts, co2, jam, *_ = week_of_data
        profile = weekly_profile(jam, ts)
        assert profile.matrix.shape == (7, 24)
        # Traffic: weekdays busier than weekends.
        assert profile.weekday_vs_weekend_ratio() > 1.1

    def test_anomalous_days_found(self):
        ts = np.arange(0, 30 * DAY, HOUR, dtype=np.int64)
        rng = np.random.default_rng(14)
        v = 50.0 + rng.normal(0, 1.0, ts.size)
        day10 = (ts // DAY) == 10
        v[day10] += 30.0  # a pollution event day
        found = anomalous_days(v, ts)
        assert found
        assert found[0].day_start == 10 * DAY
        assert found[0].z_score > 2.5
