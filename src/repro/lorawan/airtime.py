"""LoRa airtime and data-rate arithmetic.

Airtime drives two behaviours the paper's network exhibits: EU868 duty
cycle limits (1 % on the common subbands) and collision probability at
gateways.  The formulas follow Semtech AN1200.13 (LoRa modem designer's
guide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: EU868 defaults used by The Things Network.
BANDWIDTH_HZ = 125_000
CODING_RATE = 1  # CR 4/5
PREAMBLE_SYMBOLS = 8
EXPLICIT_HEADER = True

SPREADING_FACTORS = (7, 8, 9, 10, 11, 12)

#: Demodulator sensitivity floor (dBm) per SF at 125 kHz, SX1276 datasheet.
SENSITIVITY_DBM = {
    7: -123.0,
    8: -126.0,
    9: -129.0,
    10: -132.0,
    11: -134.5,
    12: -137.0,
}

#: Required SNR (dB) per SF for demodulation.
REQUIRED_SNR_DB = {7: -7.5, 8: -10.0, 9: -12.5, 10: -15.0, 11: -17.5, 12: -20.0}


class InvalidSpreadingFactor(ValueError):
    """SF outside 7..12."""


def validate_sf(sf: int) -> int:
    if sf not in SPREADING_FACTORS:
        raise InvalidSpreadingFactor(f"SF must be one of {SPREADING_FACTORS}: {sf}")
    return sf


def symbol_time_s(sf: int, bandwidth_hz: int = BANDWIDTH_HZ) -> float:
    """Duration of one LoRa symbol in seconds."""
    validate_sf(sf)
    return (2**sf) / bandwidth_hz


def airtime_s(
    payload_bytes: int,
    sf: int,
    bandwidth_hz: int = BANDWIDTH_HZ,
    coding_rate: int = CODING_RATE,
    preamble_symbols: int = PREAMBLE_SYMBOLS,
    explicit_header: bool = EXPLICIT_HEADER,
) -> float:
    """Time-on-air of one uplink frame in seconds (AN1200.13).

    ``payload_bytes`` is the PHY payload (MAC header + app payload + MIC).
    Low-data-rate optimization is enabled for SF11/12 as TTN mandates.
    """
    validate_sf(sf)
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be >= 0: {payload_bytes}")
    t_sym = symbol_time_s(sf, bandwidth_hz)
    de = 1 if sf >= 11 else 0  # low data rate optimization
    ih = 0 if explicit_header else 1
    numerator = 8 * payload_bytes - 4 * sf + 28 + 16 - 20 * ih
    denominator = 4 * (sf - 2 * de)
    n_payload = 8 + max(math.ceil(numerator / denominator) * (coding_rate + 4), 0)
    t_preamble = (preamble_symbols + 4.25) * t_sym
    return t_preamble + n_payload * t_sym


@dataclass
class DutyCycle:
    """EU868 duty-cycle accounting for one device (default 1 %).

    Tracks cumulative airtime inside a sliding window; :meth:`can_send`
    answers whether a frame of a given airtime fits right now, and
    :meth:`record` charges transmitted airtime.
    """

    limit: float = 0.01
    window_s: int = 3600

    def __post_init__(self) -> None:
        if not 0.0 < self.limit <= 1.0:
            raise ValueError(f"duty-cycle limit must be in (0, 1]: {self.limit}")
        self._sends: list[tuple[float, float]] = []  # (time, airtime)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        self._sends = [(t, a) for (t, a) in self._sends if t >= horizon]

    def can_send(self, now: float, airtime: float) -> bool:
        self._prune(now)
        budget = self.limit * self.window_s
        return sum(a for _, a in self._sends) + airtime <= budget

    def record(self, now: float, airtime: float) -> None:
        self._sends.append((now, airtime))

    def next_allowed(self, now: float, airtime: float) -> float:
        """Earliest time the frame fits the budget (>= now)."""
        self._prune(now)
        if self.can_send(now, airtime):
            return now
        budget = self.limit * self.window_s
        sends = sorted(self._sends)
        running = sum(a for _, a in sends)
        for t, a in sends:
            running -= a
            candidate = t + self.window_s
            if running + airtime <= budget:
                return candidate
        return now + self.window_s
