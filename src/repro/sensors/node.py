"""The autonomous sensor node: sensing + power + faults + radio.

A :class:`SensorNode` is the paper's ~$2,000 solar-powered unit.  On each
wake-up it integrates solar charging since the previous wake, samples its
channels against the ground-truth environment, encodes the CTT payload,
and transmits over the shared LoRaWAN radio plane.  The sampling interval
adapts to battery level; an empty battery browns the node out until the
panel restores enough charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from ..geo import GeoPoint
from ..lorawan import LoraDevice, Measurements, TransmitResult, encode_measurements
from ..simclock import Scheduler
from .channels import LOW_COST_SPECS, Channel, make_channels
from .environment import UrbanEnvironment
from .faults import FaultPlan, apply_channel_faults
from .power import Battery, PowerSpec
from .sampling import BatteryAdaptive


class SamplingPolicy(Protocol):
    """Anything that maps battery state to the next sampling interval."""

    def next_interval(self, battery: Battery) -> int: ...


#: Called after every transmission attempt: (node, result, now).
TransmitObserver = Callable[["SensorNode", TransmitResult, int], None]

#: SoC the panel must restore before a browned-out node reboots.
REBOOT_SOC = 0.12
#: How often a browned-out node's recovery is re-evaluated.
BROWNOUT_RECHECK_S = 1800


@dataclass
class NodeStats:
    """Lifetime counters for one node."""

    samples: int = 0
    transmissions: int = 0
    delivered: int = 0
    duty_blocked: int = 0
    dropouts_skipped: int = 0
    brownouts: int = 0


class SensorNode:
    """One deployed CTT sensor unit."""

    def __init__(
        self,
        node_id: str,
        location: GeoPoint,
        environment: UrbanEnvironment,
        device: LoraDevice,
        *,
        rng: np.random.Generator,
        power_spec: PowerSpec | None = None,
        policy: SamplingPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        channel_specs: dict | None = None,
        initial_soc: float = 0.9,
        start_time: int = 0,
    ) -> None:
        self.node_id = node_id
        self.location = location
        self.environment = environment
        self.device = device
        self.battery = Battery(power_spec or PowerSpec(), initial_soc=initial_soc)
        self.policy: SamplingPolicy = policy or BatteryAdaptive()
        self.fault_plan = fault_plan or FaultPlan()
        self.channels: dict[str, Channel] = make_channels(
            channel_specs or LOW_COST_SPECS, rng
        )
        self._rng = rng
        self._start_time = start_time
        self._last_wake = start_time
        self._last_readings: dict[str, float] = {}
        self._sequence = 0
        self._observers: list[TransmitObserver] = []
        self.stats = NodeStats()
        self.alive = True  # cleared only by PERMANENT_DEATH

    # ------------------------------------------------------------------
    def on_transmit(self, observer: TransmitObserver) -> None:
        """Register a callback fired after every transmission attempt."""
        self._observers.append(observer)

    def schedule(self, scheduler: Scheduler, phase_s: int | None = None) -> None:
        """Start the node's wake-up loop on the simulation scheduler.

        ``phase_s`` offsets the first wake-up.  When omitted, a random
        offset inside the first interval is drawn — deployed nodes boot
        at different moments, which is what keeps their (slow, SF-
        orthogonal-less) transmissions from colliding forever.
        """
        interval = self.policy.next_interval(self.battery)
        if phase_s is None:
            phase_s = int(self._rng.integers(0, max(1, interval)))
        scheduler.call_after(
            interval + phase_s, lambda now: self._wake(scheduler, now)
        )

    # ------------------------------------------------------------------
    def _integrate_power(self, now: int) -> None:
        """Charge/drain for the interval since the previous wake.

        Solar input is integrated with a three-point sample of the
        irradiance curve (start, mid, end), plenty for <=1 h intervals.
        """
        elapsed = max(0, now - self._last_wake)
        if elapsed > 0:
            weather = self.environment.weather
            points = (self._last_wake, self._last_wake + elapsed // 2, now)
            mean_irr = sum(weather.irradiance_wm2(int(t)) for t in points) / 3.0
            self.battery.charge_from_irradiance(mean_irr, elapsed)
            self.battery.discharge_sleep(elapsed)
        self._last_wake = now

    def _wake(self, scheduler: Scheduler, now: int) -> None:
        if not self.alive:
            return
        self._integrate_power(now)

        if self.fault_plan.is_dead(now):
            self.alive = False
            return

        if self.battery.is_empty or self.battery.soc < REBOOT_SOC * 0.5:
            # Brown-out: electronics off; wait for the panel.
            self.stats.brownouts += 1
            scheduler.call_after(
                BROWNOUT_RECHECK_S, lambda t: self._recover(scheduler, t)
            )
            return

        self.sample_and_transmit(now)
        interval = self.policy.next_interval(self.battery)
        scheduler.call_after(interval, lambda t: self._wake(scheduler, t))

    def _recover(self, scheduler: Scheduler, now: int) -> None:
        if not self.alive:
            return
        self._integrate_power(now)
        if self.battery.soc >= REBOOT_SOC:
            self.sample_and_transmit(now)
            interval = self.policy.next_interval(self.battery)
            scheduler.call_after(interval, lambda t: self._wake(scheduler, t))
        else:
            scheduler.call_after(
                BROWNOUT_RECHECK_S, lambda t: self._recover(scheduler, t)
            )

    # ------------------------------------------------------------------
    def read_channels(self, now: int) -> dict[str, float]:
        """Sample every channel, applying miscalibration and faults."""
        truth = self.environment.true_values(now, self.location)
        ambient = truth["temperature_c"]
        elapsed_days = (now - self._start_time) / 86400.0
        readings: dict[str, float] = {}
        for name, channel in self.channels.items():
            raw = channel.measure(truth[name], elapsed_days, ambient)
            events = self.fault_plan.channel_faults(now, name)
            if events:
                raw = apply_channel_faults(
                    raw, events, now, self._last_readings.get(name), self._rng
                )
            readings[name] = raw
        self._last_readings = readings
        return readings

    def sample_and_transmit(self, now: int) -> TransmitResult | None:
        """One full measurement + uplink cycle; None when skipped."""
        readings = self.read_channels(now)
        self.battery.discharge_sample()
        self.stats.samples += 1

        measurements = Measurements(
            co2_ppm=readings["co2_ppm"],
            no2_ugm3=readings["no2_ugm3"],
            pm10_ugm3=readings["pm10_ugm3"],
            pm25_ugm3=readings["pm25_ugm3"],
            temperature_c=readings["temperature_c"],
            pressure_hpa=readings["pressure_hpa"],
            humidity_pct=readings["humidity_pct"],
            battery_v=self.battery.voltage,
            sequence=self._sequence,
        )
        self._sequence += 1

        if self.fault_plan.is_dropped_out(now):
            # Radio-path fault: the sample happened but never leaves the node.
            self.stats.dropouts_skipped += 1
            return None

        payload = encode_measurements(measurements)
        result = self.device.send(payload, now)
        self.stats.transmissions += 1
        if result.blocked_by_duty_cycle:
            self.stats.duty_blocked += 1
        else:
            from ..lorawan.airtime import airtime_s

            self.battery.discharge_transmit(
                airtime_s(result.uplink.phy_size, result.uplink.sf)
            )
        if result.delivered:
            self.stats.delivered += 1
        for observer in self._observers:
            observer(self, result, now)
        return result
