"""Tests for TSDB queries: aggregation, downsampling, rate, group-by."""

import numpy as np
import pytest

from repro.tsdb import Query, QueryError, TSDB, aggregators
from repro.tsdb.downsample import Downsample, FillPolicy, InvalidDownsampleSpec


@pytest.fixture
def db():
    """Two nodes reporting every 60 s for 10 minutes."""
    db = TSDB()
    for i in range(10):
        ts = i * 60
        db.put("air.co2.ppm", ts, 400.0 + i, {"node": "a", "city": "trondheim"})
        db.put("air.co2.ppm", ts, 500.0 + i, {"node": "b", "city": "trondheim"})
    db.put("air.co2.ppm", 0, 600.0, {"node": "c", "city": "vejle"})
    return db


class TestAggregators:
    def test_avg_ignores_nan(self):
        assert aggregators.get("avg")(np.array([1.0, np.nan, 3.0])) == 2.0

    def test_all_nan_yields_nan(self):
        assert np.isnan(aggregators.get("avg")(np.array([np.nan])))

    def test_count(self):
        assert aggregators.get("count")(np.array([1.0, np.nan, 3.0])) == 2.0
        assert aggregators.get("count")(np.array([])) == 0.0

    def test_sum_empty_is_zero(self):
        assert aggregators.get("sum")(np.array([])) == 0.0

    def test_percentile(self):
        p95 = aggregators.get("p95")
        vals = np.arange(1.0, 101.0)
        assert p95(vals) == pytest.approx(95.05, abs=0.5)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            aggregators.percentile(101.0)

    def test_unknown_aggregator(self):
        with pytest.raises(aggregators.UnknownAggregator):
            aggregators.get("nope")

    def test_first_last(self):
        vals = np.array([5.0, 1.0, 9.0])
        assert aggregators.get("first")(vals) == 5.0
        assert aggregators.get("last")(vals) == 9.0


class TestDownsampleSpec:
    def test_parse_minutes(self):
        ds = Downsample.parse("5m-avg")
        assert ds.width == 300
        assert ds.agg == "avg"
        assert ds.fill is FillPolicy.NONE

    def test_parse_with_fill(self):
        ds = Downsample.parse("1h-max-nan")
        assert ds.width == 3600
        assert ds.fill is FillPolicy.NAN

    def test_parse_days(self):
        assert Downsample.parse("1d-sum").width == 86400

    def test_bad_specs(self):
        for bad in ("5x-avg", "avg", "0m-avg", "5m-nope", "5m-avg-bogus"):
            with pytest.raises((InvalidDownsampleSpec, ValueError)):
                Downsample.parse(bad)

    def test_spec_round_trip(self):
        ds = Downsample.parse("5m-avg-linear")
        assert Downsample.parse(ds.spec()) == ds


class TestQueryBasics:
    def test_end_before_start(self):
        with pytest.raises(QueryError):
            Query("m", start=100, end=50)

    def test_simple_query_aggregates_across_nodes(self, db):
        res = db.run(Query("air.co2.ppm", 0, 600, tags={"city": "trondheim"}))
        series = res.single()
        # avg of node a (400+i) and node b (500+i) = 450+i
        assert series.values[0] == 450.0
        assert series.values[5] == 455.0

    def test_tag_exact_filter(self, db):
        res = db.run(Query("air.co2.ppm", 0, 600, tags={"node": "a"}))
        assert res.single().values[0] == 400.0

    def test_tag_alternation(self, db):
        res = db.run(Query("air.co2.ppm", 0, 600, tags={"node": "a|c"}))
        # At t=0: avg(400, 600) = 500.
        assert res.single().values[0] == 500.0

    def test_wildcard_tag(self, db):
        res = db.run(Query("air.co2.ppm", 0, 600, tags={"node": "*"}))
        assert len(res.single().source_series) == 3

    def test_unknown_metric_gives_empty_result(self, db):
        res = db.run(Query("nope", 0, 100))
        assert res.is_empty()
        assert len(res) == 1

    def test_group_by(self, db):
        res = db.run(Query("air.co2.ppm", 0, 600, group_by=["city"]))
        labels = {s.group_tags["city"] for s in res}
        assert labels == {"trondheim", "vejle"}

    def test_group_by_label(self, db):
        res = db.run(Query("air.co2.ppm", 0, 600, group_by=["city"]))
        labels = {s.label() for s in res}
        assert "air.co2.ppm{city=vejle}" in labels

    def test_single_raises_on_grouped(self, db):
        res = db.run(Query("air.co2.ppm", 0, 600, group_by=["node"]))
        with pytest.raises(QueryError):
            res.single()

    def test_max_aggregator(self, db):
        res = db.run(
            Query("air.co2.ppm", 0, 0, tags={"city": "trondheim"}, aggregator="max")
        )
        assert res.single().values[0] == 500.0

    def test_scanned_points_accounting(self, db):
        res = db.run(Query("air.co2.ppm", 0, 600, tags={"city": "trondheim"}))
        assert res.scanned_points == 20


class TestDownsampledQueries:
    def test_downsample_5m(self, db):
        res = db.run(
            Query(
                "air.co2.ppm",
                0,
                599,
                tags={"node": "a"},
                downsample="5m-avg",
            )
        )
        series = res.single()
        assert series.timestamps.tolist() == [0, 300]
        # First bucket: values 400..404 -> 402; second: 405..409 -> 407.
        assert series.values.tolist() == [402.0, 407.0]

    def test_downsample_fill_nan_emits_empty_buckets(self):
        db = TSDB()
        db.put("m", 0, 1.0)
        db.put("m", 900, 2.0)
        res = db.run(Query("m", 0, 1199, downsample="5m-avg-nan"))
        series = res.single()
        assert series.timestamps.tolist() == [0, 300, 600, 900]
        assert np.isnan(series.values[1])
        assert np.isnan(series.values[2])

    def test_downsample_fill_zero(self):
        db = TSDB()
        db.put("m", 0, 1.0)
        db.put("m", 600, 2.0)
        res = db.run(Query("m", 0, 899, downsample="5m-sum-zero"))
        assert res.single().values.tolist() == [1.0, 0.0, 2.0]

    def test_downsample_fill_previous(self):
        db = TSDB()
        db.put("m", 0, 5.0)
        db.put("m", 900, 7.0)
        res = db.run(Query("m", 0, 1199, downsample="5m-avg-previous"))
        assert res.single().values.tolist() == [5.0, 5.0, 5.0, 7.0]

    def test_downsample_fill_linear(self):
        db = TSDB()
        db.put("m", 0, 0.0)
        db.put("m", 900, 3.0)
        res = db.run(Query("m", 0, 1199, downsample="5m-avg-linear"))
        assert res.single().values.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_bucket_alignment(self):
        db = TSDB()
        db.put("m", 301, 1.0)  # falls in bucket [300, 600)
        res = db.run(Query("m", 0, 600, downsample="5m-avg"))
        assert res.single().timestamps.tolist() == [300]


class TestRate:
    def test_rate_of_counter(self):
        db = TSDB()
        for i, v in enumerate([0.0, 60.0, 180.0]):
            db.put("counter", i * 60, v)
        res = db.run(Query("counter", 0, 300, rate=True))
        series = res.single()
        assert series.values.tolist() == [1.0, 2.0]
        assert series.timestamps.tolist() == [60, 120]

    def test_counter_reset_clamped_to_zero(self):
        db = TSDB()
        db.put("counter", 0, 100.0)
        db.put("counter", 60, 5.0)
        res = db.run(Query("counter", 0, 60, rate=True))
        assert res.single().values.tolist() == [0.0]

    def test_rate_single_point_empty(self):
        db = TSDB()
        db.put("counter", 0, 100.0)
        assert db.run(Query("counter", 0, 60, rate=True)).is_empty()


class TestIntrospection:
    def test_metrics_listing(self, db):
        assert db.metrics() == ["air.co2.ppm"]

    def test_suggest_tag_values(self, db):
        assert db.suggest_tag_values("air.co2.ppm", "city") == ["trondheim", "vejle"]

    def test_last(self, db):
        latest = db.last("air.co2.ppm", {"node": "a"})
        assert len(latest) == 1
        ((key, (ts, val)),) = latest.items()
        assert ts == 540
        assert val == 409.0

    def test_counts(self, db):
        assert db.series_count == 3
        assert db.point_count == 21
        assert db.write_count == 21

    def test_delete_before_drops_empty_series(self, db):
        dropped = db.delete_before(10_000)
        assert dropped == 21
        assert db.series_count == 0
        assert db.run(Query("air.co2.ppm", 0, 600)).is_empty()
