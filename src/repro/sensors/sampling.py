"""Adaptive sampling policies.

Paper §2.3: "sensors nodes can adapt their frequency based on battery
levels", which is why the dataport needs "a complex model of the sensor
node and its status" to decide whether data is *missing* or merely
*slowed down*.  Policies map battery state to the next sampling interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simclock import MINUTE
from .power import Battery

#: The paper's nominal cadence: "sensor data is collected at a
#: five-minute interval".
DEFAULT_INTERVAL_S = 5 * MINUTE


@dataclass(frozen=True)
class FixedInterval:
    """Always sample at the same cadence (the non-adaptive baseline)."""

    interval_s: int = DEFAULT_INTERVAL_S

    def next_interval(self, battery: Battery) -> int:
        return self.interval_s


@dataclass(frozen=True)
class BatteryAdaptive:
    """Stretch the sampling interval as the battery depletes.

    - normal SoC: ``base_interval_s``;
    - below ``low_battery_soc``: interval × ``low_factor``;
    - below ``critical_soc``: interval × ``critical_factor``
      (survival mode — keep the digital twin alive with rare check-ins).
    """

    base_interval_s: int = DEFAULT_INTERVAL_S
    low_factor: int = 3
    critical_factor: int = 12

    def next_interval(self, battery: Battery) -> int:
        if battery.is_critical:
            return self.base_interval_s * self.critical_factor
        if battery.is_low:
            return self.base_interval_s * self.low_factor
        return self.base_interval_s
