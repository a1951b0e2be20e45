"""Property-based tests for geo, MQTT topics, LoRa codec/airtime, analytics."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.geo import GeoPoint, haversine_m
from repro.lorawan import (
    Measurements,
    airtime_s,
    decode_measurements,
    encode_measurements,
)
from repro.mqtt import topic_matches, validate_filter, validate_topic
from repro.analytics import gap_report, interpolate_gaps
from repro.sensors.power import soc_to_voltage, voltage_to_soc

lats = st.floats(min_value=-85.0, max_value=85.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
geo_points = st.builds(GeoPoint, lats, lons)


class TestGeoProperties:
    @given(geo_points, geo_points)
    @settings(max_examples=200, deadline=None)
    def test_distance_symmetric_nonnegative(self, a, b):
        d1 = a.distance_to(b)
        d2 = b.distance_to(a)
        assert d1 >= 0.0
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-6)

    @given(geo_points, geo_points, geo_points)
    # Found by hypothesis: a -> c is ~1 degree short of antipodal and
    # reads 1.75e-5 m over the two-leg path.
    @example(GeoPoint(0.0, 0.99609375), GeoPoint(0.0, 0.0), GeoPoint(0.0, -179.0))
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        # The slack is relative, from the haversine's conditioning: in
        # 2R*asin(sqrt(h)) a rounding error eps in h becomes ~sqrt(2*eps)
        # in the angle as h -> 1 (the antipode), i.e. a few 1e-8 rad, up
        # to ~0.4 m on a 2e7 m distance (2e-8 relative); short distances
        # keep ~1e-15 relative.  1e-7 bounds both; the absolute term only
        # covers degenerate all-zero triangles.
        two_legs = a.distance_to(b) + b.distance_to(c)
        assert a.distance_to(c) <= two_legs * (1.0 + 1e-7) + 1e-6

    @given(geo_points, st.floats(0.0, 359.99), st.floats(0.0, 50_000.0))
    @settings(max_examples=200, deadline=None)
    def test_destination_distance_consistent(self, p, bearing, distance):
        q = p.destination(bearing, distance)
        assert p.distance_to(q) == pytest.approx(distance, rel=1e-6, abs=0.01)


topic_level = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=6
)
topics = st.lists(topic_level, min_size=1, max_size=5).map("/".join)


class TestMqttTopicProperties:
    @given(topics)
    @settings(max_examples=200, deadline=None)
    def test_topic_matches_itself(self, topic):
        validate_topic(topic)
        assert topic_matches(topic, topic)

    @given(topics)
    @settings(max_examples=200, deadline=None)
    def test_hash_wildcard_matches_everything(self, topic):
        assume(not topic.startswith("$"))
        assert topic_matches("#", topic)

    @given(topics)
    @settings(max_examples=200, deadline=None)
    def test_plus_substitution_matches(self, topic):
        levels = topic.split("/")
        for i in range(len(levels)):
            f = "/".join(levels[:i] + ["+"] + levels[i + 1 :])
            validate_filter(f)
            assert topic_matches(f, topic)

    @given(topics, topics)
    @settings(max_examples=200, deadline=None)
    def test_exact_filters_only_match_equal_topics(self, f, topic):
        if f != topic:
            assert not topic_matches(f, topic)


measurement_floats = st.floats(min_value=0.0, max_value=3000.0, allow_nan=False)


class TestLorawanProperties:
    @given(
        measurement_floats,
        st.floats(0.0, 500.0),
        st.floats(0.0, 500.0),
        st.floats(0.0, 500.0),
        st.floats(-80.0, 80.0),
        st.floats(300.0, 1100.0),
        st.floats(0.0, 100.0),
        st.floats(3.0, 4.2),
        st.integers(0, 65535),
    )
    @settings(max_examples=200, deadline=None)
    def test_codec_round_trip_within_quantization(
        self, co2, no2, pm10, pm25, temp, pres, hum, batt, seq
    ):
        m = Measurements(co2, no2, pm10, pm25, temp, pres, hum, batt, seq)
        out = decode_measurements(encode_measurements(m))
        # Tolerance = half the quantization step (+ float epsilon).
        assert out.co2_ppm == pytest.approx(co2, abs=0.5001)
        assert out.no2_ugm3 == pytest.approx(no2, abs=0.0501)
        assert out.pm10_ugm3 == pytest.approx(pm10, abs=0.0501)
        assert out.temperature_c == pytest.approx(temp, abs=0.00501)
        assert out.pressure_hpa == pytest.approx(pres, abs=0.0501)
        assert out.humidity_pct == pytest.approx(hum, abs=0.00501)
        assert out.battery_v == pytest.approx(batt, abs=0.000501)
        assert out.sequence == seq

    @given(st.integers(0, 200), st.sampled_from([7, 8, 9, 10, 11, 12]))
    @settings(max_examples=200, deadline=None)
    def test_airtime_positive_and_monotone_in_size(self, size, sf):
        t = airtime_s(size, sf)
        assert t > 0.0
        assert airtime_s(size + 1, sf) >= t


class TestPowerCurveProperties:
    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_voltage_round_trip(self, soc):
        assert voltage_to_soc(soc_to_voltage(soc)) == pytest.approx(soc, abs=1e-6)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_voltage_monotone(self, a, b):
        if a < b:
            assert soc_to_voltage(a) <= soc_to_voltage(b)


finite_or_nan = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.just(float("nan")),
)


class TestImputationProperties:
    @given(st.lists(finite_or_nan, min_size=1, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_interpolation_never_touches_observed_values(self, vals):
        v = np.array(vals)
        out = interpolate_gaps(v, max_gap=3)
        observed = np.isfinite(v)
        assert np.array_equal(out[observed], v[observed])

    @given(st.lists(finite_or_nan, min_size=1, max_size=100), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_interpolated_values_bounded_by_neighbours(self, vals, max_gap):
        v = np.array(vals)
        out = interpolate_gaps(v, max_gap=max_gap)
        finite = v[np.isfinite(v)]
        if finite.size:
            newly = np.isfinite(out) & ~np.isfinite(v)
            assert (out[newly] >= finite.min() - 1e-9).all()
            assert (out[newly] <= finite.max() + 1e-9).all()

    @given(st.lists(finite_or_nan, min_size=1, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_gap_report_accounts_for_all_nans(self, vals):
        v = np.array(vals)
        report = gap_report(v, cadence_s=300)
        total_gap = sum(g.length for g in report.gaps)
        assert total_gap == int(np.count_nonzero(~np.isfinite(v)))
