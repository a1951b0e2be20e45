"""Urban radio propagation for the LoRaWAN backbone.

A log-distance path-loss model with log-normal shadowing, parameterized
for dense urban 868 MHz (the published LoRa measurement literature puts
the path-loss exponent at 2.7-3.5 for Nordic cities; we default to 3.1).
Reception succeeds when RSSI clears the SF's sensitivity floor and the
SNR clears the demodulation threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airtime import REQUIRED_SNR_DB, SENSITIVITY_DBM, validate_sf

#: Default CTT node transmit power (EU868 maximum ERP is 14 dBm).
DEFAULT_TX_POWER_DBM = 14.0

#: Thermal noise floor for 125 kHz at ~300 K plus a 6 dB urban noise figure.
NOISE_FLOOR_DBM = -174.0 + 10.0 * math.log10(125_000) + 6.0


@dataclass(frozen=True)
class LinkBudget:
    """Outcome of evaluating one radio link."""

    distance_m: float
    path_loss_db: float
    rssi_dbm: float
    snr_db: float
    sf: int
    received: bool


@dataclass(frozen=True)
class PropagationModel:
    """Log-distance path loss with optional log-normal shadowing.

    ``PL(d) = PL0 + 10 * n * log10(d / d0) + X_sigma``

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n`` (urban 868 MHz: ~2.7-3.5).
    pl0_db:
        Reference loss at ``d0`` = 1 m. Free-space at 868 MHz is ~31.3 dB;
        antenna/installation losses push the effective value higher.
    shadowing_sigma_db:
        Standard deviation of the shadowing term; 0 disables it.
    """

    exponent: float = 3.1
    pl0_db: float = 38.0
    shadowing_sigma_db: float = 7.0

    def path_loss_db(
        self, distance_m: float, rng: np.random.Generator | None = None
    ) -> float:
        """Path loss for a link of ``distance_m``; shadowing needs ``rng``."""
        d = max(1.0, float(distance_m))
        loss = self.pl0_db + 10.0 * self.exponent * math.log10(d)
        if rng is not None and self.shadowing_sigma_db > 0.0:
            loss += float(rng.normal(0.0, self.shadowing_sigma_db))
        return loss

    def evaluate(
        self,
        distance_m: float,
        sf: int,
        tx_power_dbm: float = DEFAULT_TX_POWER_DBM,
        rng: np.random.Generator | None = None,
    ) -> LinkBudget:
        """Full link evaluation: path loss → RSSI/SNR → reception verdict."""
        validate_sf(sf)
        loss = self.path_loss_db(distance_m, rng)
        rssi = tx_power_dbm - loss
        snr = rssi - NOISE_FLOOR_DBM
        received = rssi >= SENSITIVITY_DBM[sf] and snr >= REQUIRED_SNR_DB[sf]
        return LinkBudget(
            distance_m=float(distance_m),
            path_loss_db=loss,
            rssi_dbm=rssi,
            snr_db=snr,
            sf=sf,
            received=received,
        )
