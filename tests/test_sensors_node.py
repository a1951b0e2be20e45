"""Tests for sensor channels, power, sampling policies, faults, and nodes."""

import datetime as dt

import numpy as np
import pytest

from repro.geo import TRONDHEIM
from repro.lorawan import (
    Gateway,
    LoraDevice,
    NetworkServer,
    PropagationModel,
    RadioPlane,
    decode_measurements,
)
from repro.sensors import (
    Battery,
    BatteryAdaptive,
    Channel,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FixedInterval,
    LOW_COST_SPECS,
    PowerSpec,
    REFERENCE_SPECS,
    SensorNode,
    UrbanEnvironment,
    random_fault_plan,
    soc_to_voltage,
    voltage_to_soc,
)
from repro.simclock import DAY, HOUR, Scheduler, SimClock, from_datetime


def make_env(seed=7):
    return UrbanEnvironment("trondheim", TRONDHEIM, seed=seed)


def make_node(
    env=None,
    seed=1,
    policy=None,
    fault_plan=None,
    initial_soc=0.9,
    power_spec=None,
    start=0,
):
    env = env or make_env()
    plane = RadioPlane(
        PropagationModel(shadowing_sigma_db=0.0), np.random.default_rng(seed)
    )
    plane.add_gateway(Gateway("gw-0", TRONDHEIM.destination(0.0, 400.0)))
    device = LoraDevice("dev-1", TRONDHEIM, plane, sf=9)
    return SensorNode(
        "ctt-01",
        TRONDHEIM,
        env,
        device,
        rng=np.random.default_rng(seed),
        policy=policy,
        fault_plan=fault_plan,
        initial_soc=initial_soc,
        power_spec=power_spec,
        start_time=start,
    )


class TestBattery:
    def test_voltage_curve_monotone(self):
        socs = np.linspace(0.0, 1.0, 50)
        volts = [soc_to_voltage(s) for s in socs]
        assert volts == sorted(volts)
        assert volts[0] == 3.0
        assert volts[-1] == 4.2

    def test_voltage_soc_round_trip(self):
        for soc in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert voltage_to_soc(soc_to_voltage(soc)) == pytest.approx(soc, abs=0.01)

    def test_initial_soc_validation(self):
        with pytest.raises(ValueError):
            Battery(PowerSpec(), initial_soc=1.5)

    def test_sleep_drain(self):
        b = Battery(PowerSpec(), initial_soc=1.0)
        before = b.soc
        b.discharge_sleep(DAY)
        assert b.soc < before

    def test_charging_caps_at_full(self):
        b = Battery(PowerSpec(), initial_soc=0.99)
        gained = b.charge_from_irradiance(1000.0, 10 * HOUR)
        assert b.soc == 1.0
        assert gained < PowerSpec().capacity_mas * 0.02

    def test_discharge_floors_at_zero(self):
        b = Battery(PowerSpec(), initial_soc=0.001)
        for _ in range(100):
            b.discharge_sample()
        assert b.soc == 0.0
        assert b.is_empty

    def test_thresholds(self):
        spec = PowerSpec()
        assert Battery(spec, initial_soc=0.2).is_low
        assert not Battery(spec, initial_soc=0.5).is_low
        assert Battery(spec, initial_soc=0.05).is_critical

    def test_negative_durations_rejected(self):
        b = Battery(PowerSpec())
        with pytest.raises(ValueError):
            b.discharge_sleep(-1)
        with pytest.raises(ValueError):
            b.charge_from_irradiance(100.0, -1)


class TestChannels:
    def test_reference_much_cleaner_than_low_cost(self):
        rng = np.random.default_rng(0)
        low = Channel(LOW_COST_SPECS["co2_ppm"], np.random.default_rng(1))
        ref = Channel(REFERENCE_SPECS["co2_ppm"], np.random.default_rng(1))
        truth = 400.0
        low_err = np.mean(
            [abs(low.measure(truth, 0.0) - truth) for _ in range(200)]
        )
        ref_err = np.mean(
            [abs(ref.measure(truth, 0.0) - truth) for _ in range(200)]
        )
        assert ref_err < low_err / 3.0

    def test_drift_grows_with_time(self):
        ch = Channel(LOW_COST_SPECS["co2_ppm"], np.random.default_rng(3))
        early = np.mean([ch.measure(400.0, 0.0) for _ in range(300)])
        late = np.mean([ch.measure(400.0, 365.0) for _ in range(300)])
        assert abs(late - early) == pytest.approx(ch.drift_rate * 365.0, rel=0.3)

    def test_saturation(self):
        ch = Channel(LOW_COST_SPECS["co2_ppm"], np.random.default_rng(4))
        assert ch.measure(1e9, 0.0) == 5000.0
        assert ch.measure(-1e9, 0.0) == 0.0

    def test_quantization(self):
        ch = Channel(LOW_COST_SPECS["co2_ppm"], np.random.default_rng(5))
        reading = ch.measure(412.3456, 0.0)
        assert reading == round(reading)  # 1 ppm resolution

    def test_unit_to_unit_spread(self):
        a = Channel(LOW_COST_SPECS["co2_ppm"], np.random.default_rng(10))
        b = Channel(LOW_COST_SPECS["co2_ppm"], np.random.default_rng(11))
        assert a.gain != b.gain


class TestSamplingPolicies:
    def test_fixed(self):
        policy = FixedInterval(300)
        assert policy.next_interval(Battery(PowerSpec(), 0.05)) == 300

    def test_adaptive_slows_down_when_low(self):
        policy = BatteryAdaptive(base_interval_s=300)
        spec = PowerSpec()
        assert policy.next_interval(Battery(spec, 0.9)) == 300
        assert policy.next_interval(Battery(spec, 0.2)) == 900
        assert policy.next_interval(Battery(spec, 0.05)) == 3600


class TestFaults:
    def test_event_activity_window(self):
        e = FaultEvent(FaultKind.TRANSIENT_DROPOUT, start=100, duration=50)
        assert not e.active_at(99)
        assert e.active_at(100)
        assert e.active_at(149)
        assert not e.active_at(150)

    def test_permanent_has_no_end(self):
        e = FaultEvent(FaultKind.PERMANENT_DEATH, start=100)
        assert e.end is None
        assert e.active_at(10**9)

    def test_plan_queries(self):
        plan = FaultPlan(
            [
                FaultEvent(FaultKind.TRANSIENT_DROPOUT, 100, 50),
                FaultEvent(FaultKind.DECAY, 0, channel="co2_ppm"),
            ]
        )
        assert plan.is_dropped_out(120)
        assert not plan.is_dropped_out(200)
        assert not plan.is_dead(120)
        assert plan.channel_faults(50, "co2_ppm")
        assert not plan.channel_faults(50, "no2_ugm3")

    def test_random_plan_deterministic(self):
        p1 = random_fault_plan(np.random.default_rng(5), 0, 7 * DAY)
        p2 = random_fault_plan(np.random.default_rng(5), 0, 7 * DAY)
        assert [(e.kind, e.start) for e in p1.events] == [
            (e.kind, e.start) for e in p2.events
        ]

    def test_random_plan_horizon_validation(self):
        with pytest.raises(ValueError):
            random_fault_plan(np.random.default_rng(0), 100, 50)


class TestSensorNode:
    def test_sample_and_transmit_delivers(self):
        node = make_node()
        result = node.sample_and_transmit(now=0)
        assert result is not None
        assert result.delivered
        assert node.stats.samples == 1
        assert node.stats.delivered == 1

    def test_payload_decodes_to_sane_values(self):
        node = make_node()
        result = node.sample_and_transmit(now=0)
        m = decode_measurements(result.uplink.payload)
        assert 380.0 <= m.co2_ppm <= 600.0
        assert 3.0 <= m.battery_v <= 4.2
        assert m.sequence == 0

    def test_scheduled_loop_five_minute_cadence(self):
        sched = Scheduler(SimClock(start=0))
        node = make_node(policy=FixedInterval(300))
        node.schedule(sched, phase_s=0)
        sched.run_until(3600)
        assert node.stats.samples == 12

    def test_dropout_skips_transmission_but_samples(self):
        plan = FaultPlan([FaultEvent(FaultKind.TRANSIENT_DROPOUT, 0, 10_000)])
        node = make_node(fault_plan=plan)
        result = node.sample_and_transmit(now=100)
        assert result is None
        assert node.stats.samples == 1
        assert node.stats.dropouts_skipped == 1

    def test_permanent_death_stops_the_loop(self):
        plan = FaultPlan([FaultEvent(FaultKind.PERMANENT_DEATH, 1000)])
        sched = Scheduler(SimClock(start=0))
        node = make_node(fault_plan=plan, policy=FixedInterval(300))
        node.schedule(sched, phase_s=0)
        sched.run_until(DAY)
        assert not node.alive
        assert node.stats.samples == 3  # t=300, 600, 900

    def test_battery_depletes_without_sun(self):
        """A node sampling aggressively in polar night must brown out."""
        env = make_env()
        # January in Trondheim: almost no solar input.
        start = from_datetime(dt.datetime(2017, 1, 5))
        spec = PowerSpec(battery_capacity_mah=60.0)  # tiny battery
        sched = Scheduler(SimClock(start=start))
        node = make_node(
            env=env, power_spec=spec, policy=FixedInterval(300), start=start,
            initial_soc=0.5,
        )
        node._last_wake = start
        node.schedule(sched, phase_s=0)
        sched.run_until(start + 3 * DAY)
        assert node.stats.brownouts > 0

    def test_adaptive_policy_reduces_cadence_when_starved(self):
        env = make_env()
        start = from_datetime(dt.datetime(2017, 1, 5))
        spec = PowerSpec(battery_capacity_mah=150.0)
        sched = Scheduler(SimClock(start=start))
        adaptive = make_node(
            env=env, power_spec=spec, policy=BatteryAdaptive(300), start=start,
            initial_soc=0.4, seed=2,
        )
        fixed = make_node(
            env=env, power_spec=spec, policy=FixedInterval(300), start=start,
            initial_soc=0.4, seed=2,
        )
        adaptive._last_wake = start
        fixed._last_wake = start
        adaptive.schedule(sched, phase_s=0)
        fixed.schedule(sched, phase_s=30)
        sched.run_until(start + 2 * DAY)
        # The adaptive node stretches its interval, so it samples less...
        assert adaptive.stats.samples < fixed.stats.samples
        # ...and survives with fewer brown-outs.
        assert adaptive.stats.brownouts <= fixed.stats.brownouts

    def test_observer_called(self):
        node = make_node()
        calls = []
        node.on_transmit(lambda n, r, t: calls.append((n.node_id, t)))
        node.sample_and_transmit(now=42)
        assert calls == [("ctt-01", 42)]

    def test_stuck_channel_repeats_reading(self):
        plan = FaultPlan(
            [FaultEvent(FaultKind.STUCK_VALUE, 50, channel="co2_ppm")]
        )
        node = make_node(fault_plan=plan)
        first = node.read_channels(0)  # healthy baseline
        stuck1 = node.read_channels(100)
        stuck2 = node.read_channels(200)
        assert stuck1["co2_ppm"] == first["co2_ppm"]
        assert stuck2["co2_ppm"] == stuck1["co2_ppm"]
        assert stuck2["no2_ugm3"] != stuck1["no2_ugm3"]

    def test_end_to_end_into_network_server(self):
        node = make_node()
        ns = NetworkServer()
        received = []
        ns.on_uplink(received.append)
        node.on_transmit(
            lambda n, result, now: result.uplink
            and ns.ingest(result.uplink, result.receptions, now)
        )
        node.sample_and_transmit(now=0)
        assert len(received) == 1
        assert received[0].uplink.dev_eui == "dev-1"
