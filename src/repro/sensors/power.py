"""Battery and solar charging model for autonomous sensor nodes.

Paper Fig. 4: "Battery levels depend on the charging of the autonomous
sensor units through their solar panels.  Charg[ing] occurs during
daytime, and is affected by weather conditions."  The model is a Li-ion
cell + small PV panel: energy book-keeping in coulombs, with the battery
*voltage* (what the node actually telemeters) derived from the state of
charge through a standard Li-ion discharge curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Li-ion open-circuit voltage curve: state-of-charge -> volts.
_SOC_KNOTS = np.array([0.0, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 1.00])
_V_KNOTS = np.array([3.00, 3.30, 3.45, 3.60, 3.70, 3.85, 4.00, 4.20])


def soc_to_voltage(soc: float) -> float:
    """Open-circuit voltage for a state of charge in [0, 1]."""
    soc = min(1.0, max(0.0, soc))
    return float(np.interp(soc, _SOC_KNOTS, _V_KNOTS))


def voltage_to_soc(volts: float) -> float:
    """Inverse of :func:`soc_to_voltage` (monotone, so well-defined)."""
    volts = min(_V_KNOTS[-1], max(_V_KNOTS[0], volts))
    return float(np.interp(volts, _V_KNOTS, _SOC_KNOTS))


@dataclass(frozen=True)
class PowerSpec:
    """Electrical parameters of a node.

    Defaults approximate the CTT prototype: a 2000 mAh cell, a 1 W
    panel, tens of µA sleep current, and a power-hungry NDIR CO2 sensor
    dominating the per-sample cost.
    """

    battery_capacity_mah: float = 2000.0
    panel_watts: float = 1.0
    panel_efficiency: float = 0.75  # wiring/charge-controller losses
    sleep_current_ma: float = 0.08
    sample_cost_mas: float = 900.0  # mA·s per measurement cycle
    tx_current_ma: float = 120.0  # radio transmit current
    system_voltage: float = 3.7
    low_battery_soc: float = 0.25
    critical_soc: float = 0.08

    @property
    def capacity_mas(self) -> float:
        """Capacity in mA·s (milliamp-seconds)."""
        return self.battery_capacity_mah * 3600.0


class Battery:
    """Charge book-keeping for one node.

    All flows are in mA·s at the system voltage.  ``charge`` adds solar
    input from irradiance; ``discharge_*`` subtract load.  The class is
    deliberately passive — the node decides when to sample/transmit.
    """

    def __init__(self, spec: PowerSpec, initial_soc: float = 0.9) -> None:
        if not 0.0 <= initial_soc <= 1.0:
            raise ValueError(f"initial_soc must be in [0, 1]: {initial_soc}")
        self.spec = spec
        self._charge_mas = initial_soc * spec.capacity_mas

    @property
    def soc(self) -> float:
        return self._charge_mas / self.spec.capacity_mas

    @property
    def voltage(self) -> float:
        return soc_to_voltage(self.soc)

    @property
    def is_low(self) -> bool:
        return self.soc <= self.spec.low_battery_soc

    @property
    def is_critical(self) -> bool:
        return self.soc <= self.spec.critical_soc

    @property
    def is_empty(self) -> bool:
        return self._charge_mas <= 0.0

    def _clamp(self) -> None:
        self._charge_mas = min(self.spec.capacity_mas, max(0.0, self._charge_mas))

    def charge_from_irradiance(self, irradiance_wm2: float, seconds: float) -> float:
        """Add solar energy for an interval; returns mA·s gained.

        The panel produces ``panel_watts`` at 1000 W/m² reference
        irradiance, scaled linearly, then derated by the controller
        efficiency and converted to current at the system voltage.
        """
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        watts = self.spec.panel_watts * max(0.0, irradiance_wm2) / 1000.0
        ma = watts * self.spec.panel_efficiency / self.spec.system_voltage * 1000.0
        gained = ma * seconds
        before = self._charge_mas
        self._charge_mas += gained
        self._clamp()
        return self._charge_mas - before

    def discharge_sleep(self, seconds: float) -> None:
        """Baseline sleep-current drain for an interval."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        self._charge_mas -= self.spec.sleep_current_ma * seconds
        self._clamp()

    def discharge_sample(self) -> None:
        """One full measurement cycle (sensor warm-up dominates)."""
        self._charge_mas -= self.spec.sample_cost_mas
        self._clamp()

    def discharge_transmit(self, airtime_s: float) -> None:
        """One radio transmission of the given airtime."""
        if airtime_s < 0:
            raise ValueError("airtime_s must be >= 0")
        self._charge_mas -= self.spec.tx_current_ma * airtime_s
        self._clamp()
