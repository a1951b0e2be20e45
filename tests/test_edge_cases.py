"""Edge-case tests across modules: boundaries the main suites skip."""

import numpy as np
import pytest

from repro.analytics import band, caqi, diurnal_profile, sub_index
from repro.dataport import Actor, ActorSystem
from repro.geo import BoundingBox, GeoPoint
from repro.lorawan import airtime_s
from repro.mqtt import Broker
from repro.simclock import Scheduler, SimClock, floor_to
from repro.streams import Event, Sink, Source
from repro.tsdb import Query, TSDB
from repro.tsdb.downsample import Downsample, InvalidDownsampleSpec, MAX_FILLED_BUCKETS
from repro.viz import Chart, sparkline


class TestSchedulerEdges:
    def test_peek_skips_cancelled(self):
        sched = Scheduler(SimClock(start=0))
        fired = []
        h1 = sched.call_at(10, fired.append)
        sched.call_at(20, fired.append)
        h1.cancel()
        assert sched.step()
        assert fired == [20]

    def test_run_until_now_runs_due_events(self):
        sched = Scheduler(SimClock(start=100))
        fired = []
        sched.call_at(100, fired.append)
        sched.run_until(100)
        assert fired == [100]

    def test_handle_when_property(self):
        sched = Scheduler(SimClock(start=0))
        h = sched.call_at(55, lambda now: None)
        assert h.when == 55
        assert not h.cancelled


class TestTsdbEdges:
    def test_empty_database_queries(self):
        db = TSDB()
        assert db.metrics() == []
        assert db.last("nope") == {}
        assert db.run(Query("nope", 0, 10)).is_empty()
        assert db.delete_before(100) == 0

    def test_single_point_series(self):
        db = TSDB()
        db.put("m", 5, 1.0)
        res = db.run(Query("m", 0, 10, downsample="5m-avg"))
        assert res.single().values.tolist() == [1.0]

    def test_query_exact_boundaries(self):
        db = TSDB()
        db.put("m", 10, 1.0)
        db.put("m", 20, 2.0)
        res = db.run(Query("m", 10, 20))
        assert len(res.single()) == 2
        res = db.run(Query("m", 11, 19))
        assert res.is_empty()

    def test_filled_bucket_limit_enforced(self):
        db = TSDB()
        db.put("m", 0, 1.0)
        db.put("m", (MAX_FILLED_BUCKETS + 10) * 60, 2.0)
        with pytest.raises(InvalidDownsampleSpec):
            db.run(
                Query("m", 0, (MAX_FILLED_BUCKETS + 10) * 60,
                      downsample="1m-avg-nan")
            )

    def test_sparse_downsample_huge_span_is_fine(self):
        db = TSDB()
        db.put("m", 0, 1.0)
        db.put("m", 2**40, 2.0)
        res = db.run(Query("m", 0, 2**40, downsample="1m-avg"))
        assert len(res.single()) == 2

    def test_tag_index_narrowing_consistent_with_full_match(self):
        db = TSDB()
        for i in range(20):
            db.put("m", i, float(i), {"node": f"n{i % 4}", "city": "x"})
        narrowed = db.run(Query("m", 0, 20, tags={"node": "n1", "city": "x"}))
        assert len(narrowed.single().source_series) == 1
        assert narrowed.scanned_points == 5


class TestMqttEdges:
    def test_reconnect_clean_session_drops_subscriptions(self):
        broker = Broker()
        got = []
        c1 = broker.connect("c")
        c1.subscribe("t", got.append)
        broker.connect("c")  # every session is clean: wipes state
        broker.publish("t", b"x")
        assert got == []

    def test_retained_for_multiple(self):
        broker = Broker()
        broker.publish("a/1", b"x", retain=True)
        broker.publish("a/2", b"y", retain=True)
        broker.publish("b/1", b"z", retain=True)
        assert len(broker.retained_for("a/#")) == 2


class TestLorawanEdges:
    def test_zero_payload_airtime(self):
        assert airtime_s(0, 7) > 0.0


class TestActorEdges:
    def test_stop_unknown_ref_is_noop(self):
        system = ActorSystem(Scheduler(SimClock(start=0)))

        class A(Actor):
            def receive(self, message, sender):
                pass

        ref = system.spawn(A, "a")
        system.stop(ref)
        system.stop(ref)  # second stop: no error
        assert system.actor_count() == 0

    def test_sender_passed_through(self):
        system = ActorSystem(Scheduler(SimClock(start=0)))
        seen = []

        class A(Actor):
            def receive(self, message, sender):
                seen.append(sender)

        a = system.spawn(A, "a")
        b = system.spawn(A, "b")
        a.tell("hi", sender=b)
        assert seen == [b]


class TestAqiEdges:
    def test_band_boundaries(self):
        assert band(25.0) == "very_low"
        assert band(25.0001) == "low"
        assert band(100.0) == "high"
        assert band(100.0001) == "very_high"

    def test_caqi_nan_values_skipped(self):
        result = caqi({"no2_ugm3": float("nan"), "pm10_ugm3": 30.0})
        assert result.dominant == "pm10_ugm3"

    def test_sub_index_negative_clamps(self):
        assert sub_index("no2_ugm3", -5.0) == 0.0


class TestVizEdges:
    def test_chart_single_point(self):
        chart = Chart("one")
        chart.add("a", np.array([100]), np.array([5.0]))
        assert "5.0" in chart.render_text()
        assert "<circle" in chart.render_svg()

    def test_chart_all_nan_series(self):
        chart = Chart("nan")
        chart.add("a", np.arange(5), np.full(5, np.nan))
        assert "(no data)" in chart.render_text()

    def test_sparkline_single_value(self):
        assert len(sparkline(np.array([3.0]))) == 1


class TestStreamEdges:
    def test_flush_propagates_through_chain(self):
        from repro.streams import TumblingWindow, chain

        src, win, sink = Source(), TumblingWindow(100), Sink()
        chain(src, win, sink)
        src.push(Event(10, 1.0))
        src.flush()
        assert len(sink.events) == 1

    def test_diurnal_profile_empty(self):
        profile = diurnal_profile(np.array([]), np.array([], dtype=np.int64))
        assert np.isnan(profile).all()


class TestGeoEdges:
    def test_bbox_zero_area(self):
        box = BoundingBox(1.0, 2.0, 1.0, 2.0)
        assert box.contains(GeoPoint(1.0, 2.0))
        assert box.height_m == 0.0

    def test_floor_to_negative_like_epoch(self):
        assert floor_to(0, 300) == 0
