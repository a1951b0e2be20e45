"""Tests for repro.simclock: clock, scheduler, and solar model."""

import datetime as dt

import pytest

from repro.simclock import (
    CTT_EPOCH,
    DAY,
    HOUR,
    MINUTE,
    ClockError,
    Scheduler,
    SimClock,
    day_of_week,
    day_of_year,
    floor_to,
    from_datetime,
    hour_of_day,
    is_weekend,
    solar_elevation_deg,
    solar_irradiance_wm2,
    to_datetime,
)

TRD_LAT, TRD_LON = 63.43, 10.40


class TestSimClock:
    def test_default_epoch_is_jan_2017(self):
        clock = SimClock()
        assert clock.datetime() == dt.datetime(2017, 1, 1, tzinfo=dt.timezone.utc)

    def test_advance(self):
        clock = SimClock(start=1000)
        assert clock.advance_to(1050) == 1050
        assert clock.now() == 1050
        assert clock.elapsed() == 50

    def test_advance_to_backwards_raises(self):
        clock = SimClock(start=1000)
        with pytest.raises(ClockError):
            clock.advance_to(999)

    def test_advance_to_same_time_is_ok(self):
        clock = SimClock(start=1000)
        assert clock.advance_to(1000) == 1000

    def test_isoformat(self):
        assert SimClock().isoformat() == "2017-01-01T00:00:00Z"


class TestTimeHelpers:
    def test_round_trips(self):
        when = dt.datetime(2017, 6, 15, 12, 30, tzinfo=dt.timezone.utc)
        assert to_datetime(from_datetime(when)) == when

    def test_naive_datetime_treated_as_utc(self):
        naive = dt.datetime(2017, 6, 15, 12, 0)
        aware = dt.datetime(2017, 6, 15, 12, 0, tzinfo=dt.timezone.utc)
        assert from_datetime(naive) == from_datetime(aware)

    def test_hour_of_day(self):
        ts = from_datetime(dt.datetime(2017, 3, 1, 13, 30))
        assert hour_of_day(ts) == 13.5

    def test_day_of_year(self):
        assert day_of_year(CTT_EPOCH) == 1

    def test_weekdays(self):
        # 2017-01-01 was a Sunday.
        assert day_of_week(CTT_EPOCH) == 6
        assert is_weekend(CTT_EPOCH)
        assert not is_weekend(CTT_EPOCH + 2 * DAY)  # Tuesday

    def test_floor_to(self):
        assert floor_to(1234, 300) == 1200
        assert floor_to(1200, 300) == 1200
        with pytest.raises(ValueError):
            floor_to(100, 0)


class TestScheduler:
    def test_events_run_in_time_order(self):
        sched = Scheduler(SimClock(start=0))
        order = []
        sched.call_at(50, lambda now: order.append(("b", now)))
        sched.call_at(10, lambda now: order.append(("a", now)))
        sched.run_until(100)
        assert order == [("a", 10), ("b", 50)]

    def test_fifo_for_same_timestamp(self):
        sched = Scheduler(SimClock(start=0))
        order = []
        sched.call_at(10, lambda now: order.append(1))
        sched.call_at(10, lambda now: order.append(2))
        sched.run_until(10)
        assert order == [1, 2]

    def test_clock_lands_exactly_on_deadline(self):
        sched = Scheduler(SimClock(start=0))
        sched.call_at(10, lambda now: None)
        sched.run_until(25)
        assert sched.clock.now() == 25

    def test_cancel(self):
        sched = Scheduler(SimClock(start=0))
        fired = []
        handle = sched.call_at(10, lambda now: fired.append(now))
        handle.cancel()
        sched.run_until(100)
        assert fired == []
        assert sched.pending() == 0

    def test_call_after(self):
        sched = Scheduler(SimClock(start=100))
        fired = []
        sched.call_after(5, fired.append)
        sched.run_until(200)
        assert fired == [105]

    def test_past_events_clamped_to_now(self):
        sched = Scheduler(SimClock(start=100))
        fired = []
        sched.call_at(10, fired.append)
        sched.run_until(100)
        assert fired == [100]

    def test_recurring(self):
        sched = Scheduler(SimClock(start=0))
        fired = []
        sched.call_every(10, fired.append)
        sched.run_until(35)
        assert fired == [10, 20, 30]

    def test_recurring_cancel_stops_series(self):
        sched = Scheduler(SimClock(start=0))
        fired = []
        handle = sched.call_every(10, fired.append)
        sched.run_until(25)
        handle.cancel()
        sched.run_until(100)
        assert fired == [10, 20]

    def test_recurring_with_custom_start(self):
        sched = Scheduler(SimClock(start=0))
        fired = []
        sched.call_every(10, fired.append, start_after=0)
        sched.run_until(15)
        assert fired == [0, 10]

    def test_recurring_invalid_interval(self):
        with pytest.raises(ValueError):
            Scheduler().call_every(0, lambda now: None)

    def test_nested_scheduling(self):
        sched = Scheduler(SimClock(start=0))
        fired = []

        def outer(now):
            fired.append(("outer", now))
            sched.call_after(5, lambda t: fired.append(("inner", t)))

        sched.call_at(10, outer)
        sched.run_until(100)
        assert fired == [("outer", 10), ("inner", 15)]

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False


class TestSunModel:
    def june_noon(self):
        return from_datetime(dt.datetime(2017, 6, 21, 11, 18))  # local solar noon

    def december_noon(self):
        return from_datetime(dt.datetime(2017, 12, 21, 11, 18))

    def test_summer_noon_elevation(self):
        # 90 - lat + decl = 90 - 63.43 + 23.44 ~ 50 degrees.
        elev = solar_elevation_deg(self.june_noon(), TRD_LAT, TRD_LON)
        assert elev == pytest.approx(50.0, abs=1.5)

    def test_winter_noon_elevation(self):
        elev = solar_elevation_deg(self.december_noon(), TRD_LAT, TRD_LON)
        assert elev == pytest.approx(3.1, abs=1.5)

    def test_daylight_fraction_seasonality(self):
        def daylight_hours(day):
            start = from_datetime(day)
            return sum(
                solar_elevation_deg(start + m * MINUTE, TRD_LAT, TRD_LON) > 0.0
                for m in range(0, 24 * 60, 10)
            ) / 6.0

        summer = daylight_hours(dt.datetime(2017, 6, 21))
        winter = daylight_hours(dt.datetime(2017, 12, 21))
        assert summer > 19.5  # ~20.5 h of daylight
        assert winter < 6.0  # ~4.5 h

    def test_polar_cases(self):
        # At 80 N the sun never sets at midsummer and never rises at midwinter.
        summer = from_datetime(dt.datetime(2017, 6, 21))
        winter = from_datetime(dt.datetime(2017, 12, 21))
        hours = range(24)
        assert min(solar_elevation_deg(summer + h * HOUR, 80.0, 0.0) for h in hours) > 0
        assert max(solar_elevation_deg(winter + h * HOUR, 80.0, 0.0) for h in hours) < 0

    def test_midnight_is_dark_in_winter(self):
        midnight = from_datetime(dt.datetime(2017, 12, 21, 0, 0))
        assert solar_elevation_deg(midnight, TRD_LAT, TRD_LON) < 0.0

    def test_irradiance_zero_at_night(self):
        midnight = from_datetime(dt.datetime(2017, 12, 21, 0, 0))
        assert solar_irradiance_wm2(midnight, TRD_LAT, TRD_LON) == 0.0

    def test_irradiance_positive_at_summer_noon(self):
        ghi = solar_irradiance_wm2(self.june_noon(), TRD_LAT, TRD_LON)
        assert 600.0 < ghi < 1000.0

    def test_clouds_attenuate(self):
        ts = self.june_noon()
        clear = solar_irradiance_wm2(ts, TRD_LAT, TRD_LON, cloud_cover=0.0)
        overcast = solar_irradiance_wm2(ts, TRD_LAT, TRD_LON, cloud_cover=1.0)
        assert overcast == pytest.approx(0.25 * clear, rel=1e-6)

    def test_cloud_cover_validated(self):
        with pytest.raises(ValueError):
            solar_irradiance_wm2(self.june_noon(), TRD_LAT, TRD_LON, cloud_cover=1.5)
