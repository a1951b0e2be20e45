"""Measurement channels: how a physical sensor corrupts the truth.

Low-cost sensors are the paper's central trade-off: ~$2,000 nodes instead
of $500,000 stations, compensating lower accuracy with density.  Each
channel model applies gain error, zero offset, temperature-dependent
drift, aging drift, quantization, and white noise — the error structure
the calibration analytics (paper §2.4) must undo against the co-located
reference station.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class ChannelSpec:
    """Error model parameters for one measurement channel.

    Parameters
    ----------
    name:
        Quantity name (matches keys of
        :meth:`~repro.sensors.environment.UrbanEnvironment.true_values`).
    noise_sigma:
        Standard deviation of white measurement noise (engineering units).
    gain_error:
        Multiplicative miscalibration (0.05 → reads 5 % high).
    zero_offset:
        Additive miscalibration in engineering units.
    temp_coefficient:
        Additional offset per °C away from the 20 °C calibration point.
    drift_per_day:
        Aging drift added per elapsed day (sensor decay).
    resolution:
        Quantization step of the ADC/firmware output.
    lower, upper:
        Physical reporting range; readings clamp here (sensor saturation).
    """

    name: str
    noise_sigma: float
    gain_error: float = 0.0
    zero_offset: float = 0.0
    temp_coefficient: float = 0.0
    drift_per_day: float = 0.0
    resolution: float = 0.0
    lower: float = float("-inf")
    upper: float = float("inf")


#: Typical low-cost (NDIR / electrochemical / optical) channel specs.
LOW_COST_SPECS = {
    "co2_ppm": ChannelSpec(
        "co2_ppm",
        noise_sigma=8.0,
        gain_error=0.04,
        zero_offset=15.0,
        temp_coefficient=0.35,
        drift_per_day=0.08,
        resolution=1.0,
        lower=0.0,
        upper=5000.0,
    ),
    "no2_ugm3": ChannelSpec(
        "no2_ugm3",
        noise_sigma=4.0,
        gain_error=0.08,
        zero_offset=3.0,
        temp_coefficient=0.25,
        drift_per_day=0.05,
        resolution=0.1,
        lower=0.0,
        upper=1000.0,
    ),
    "pm10_ugm3": ChannelSpec(
        "pm10_ugm3",
        noise_sigma=3.0,
        gain_error=0.10,
        zero_offset=2.0,
        drift_per_day=0.03,
        resolution=0.1,
        lower=0.0,
        upper=1000.0,
    ),
    "pm25_ugm3": ChannelSpec(
        "pm25_ugm3",
        noise_sigma=2.0,
        gain_error=0.10,
        zero_offset=1.0,
        drift_per_day=0.02,
        resolution=0.1,
        lower=0.0,
        upper=1000.0,
    ),
    "temperature_c": ChannelSpec(
        "temperature_c", noise_sigma=0.2, zero_offset=0.3, resolution=0.01,
        lower=-40.0, upper=85.0,
    ),
    "pressure_hpa": ChannelSpec(
        "pressure_hpa", noise_sigma=0.3, zero_offset=0.5, resolution=0.1,
        lower=300.0, upper=1100.0,
    ),
    "humidity_pct": ChannelSpec(
        "humidity_pct", noise_sigma=1.5, gain_error=0.03, resolution=0.01,
        lower=0.0, upper=100.0,
    ),
}

#: Reference-grade station specs: an order of magnitude cleaner, no drift.
REFERENCE_SPECS = {
    name: replace(
        spec,
        noise_sigma=spec.noise_sigma * 0.08,
        gain_error=0.0,
        zero_offset=0.0,
        temp_coefficient=0.0,
        drift_per_day=0.0,
    )
    for name, spec in LOW_COST_SPECS.items()
}


class Channel:
    """One instantiated channel with unit-specific random miscalibration.

    Two nodes built from the same spec get *different* gain/offset draws
    (manufacturing spread), which is what makes per-node calibration
    necessary.
    """

    def __init__(self, spec: ChannelSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        # Unit-to-unit spread: the spec values are 1-sigma magnitudes.
        self.gain = 1.0 + float(rng.normal(0.0, max(spec.gain_error, 1e-12)))
        self.offset = float(rng.normal(0.0, max(spec.zero_offset, 1e-12)))
        self.temp_co = float(
            rng.normal(0.0, max(spec.temp_coefficient, 1e-12))
        )
        self.drift_rate = float(
            abs(rng.normal(0.0, max(spec.drift_per_day, 1e-12)))
        )
        self._rng = rng

    def measure(
        self, true_value: float, elapsed_days: float, ambient_temp_c: float = 20.0
    ) -> float:
        """Corrupt ``true_value`` per the channel's error model."""
        reading = true_value * self.gain + self.offset
        reading += self.temp_co * (ambient_temp_c - 20.0)
        reading += self.drift_rate * elapsed_days
        reading += float(self._rng.normal(0.0, self.spec.noise_sigma))
        if self.spec.resolution > 0.0:
            reading = round(reading / self.spec.resolution) * self.spec.resolution
        return float(min(self.spec.upper, max(self.spec.lower, reading)))


def make_channels(
    specs: dict[str, ChannelSpec], rng: np.random.Generator
) -> dict[str, Channel]:
    """Instantiate one :class:`Channel` per spec with shared RNG."""
    return {name: Channel(spec, rng) for name, spec in sorted(specs.items())}
