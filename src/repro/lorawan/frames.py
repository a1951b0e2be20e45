"""LoRaWAN frames and the CTT sensor payload codec.

Sensor nodes encode a full measurement set into a compact fixed-layout
binary payload (18 bytes), keeping airtime short.  The codec mirrors the
Cayenne-LPP-style scaled-integer approach real deployments use:

====== ===== ========================== =========================
offset bytes field                      scaling
====== ===== ========================== =========================
0      2     CO2 ppm                    unsigned, 1 ppm
2      2     NO2 µg/m³                  unsigned, 0.1 µg/m³
4      2     PM10 µg/m³                 unsigned, 0.1 µg/m³
6      2     PM2.5 µg/m³                unsigned, 0.1 µg/m³
8      2     temperature °C             signed, 0.01 °C
10     2     pressure hPa               unsigned, 0.1 hPa
12     2     humidity %RH               unsigned, 0.01 %
14     2     battery V                  unsigned, 1 mV
16     2     sequence number (app)      unsigned
====== ===== ========================== =========================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

_STRUCT = struct.Struct(">HHHHhHHHH")

PAYLOAD_SIZE = _STRUCT.size  # 18 bytes
#: PHY payload = MHDR(1) + FHDR(7) + FPort(1) + app payload + MIC(4).
MAC_OVERHEAD = 13


class PayloadError(ValueError):
    """Payload fails to encode/decode."""


@dataclass(frozen=True, slots=True)
class Measurements:
    """One decoded measurement set from a sensor node."""

    co2_ppm: float
    no2_ugm3: float
    pm10_ugm3: float
    pm25_ugm3: float
    temperature_c: float
    pressure_hpa: float
    humidity_pct: float
    battery_v: float
    sequence: int = 0



def _clamp_u16(value: float) -> int:
    return max(0, min(65535, int(round(value))))


def _clamp_i16(value: float) -> int:
    return max(-32768, min(32767, int(round(value))))


def encode_measurements(m: Measurements) -> bytes:
    """Encode a measurement set into the 18-byte CTT payload."""
    return _STRUCT.pack(
        _clamp_u16(m.co2_ppm),
        _clamp_u16(m.no2_ugm3 * 10.0),
        _clamp_u16(m.pm10_ugm3 * 10.0),
        _clamp_u16(m.pm25_ugm3 * 10.0),
        _clamp_i16(m.temperature_c * 100.0),
        _clamp_u16(m.pressure_hpa * 10.0),
        _clamp_u16(m.humidity_pct * 100.0),
        _clamp_u16(m.battery_v * 1000.0),
        m.sequence % 65536,
    )


def decode_measurements(payload: bytes) -> Measurements:
    """Decode an 18-byte CTT payload back into engineering units."""
    if len(payload) != PAYLOAD_SIZE:
        raise PayloadError(
            f"expected {PAYLOAD_SIZE}-byte payload, got {len(payload)}"
        )
    co2, no2, pm10, pm25, temp, pres, hum, batt, seq = _STRUCT.unpack(payload)
    return Measurements(
        co2_ppm=float(co2),
        no2_ugm3=no2 / 10.0,
        pm10_ugm3=pm10 / 10.0,
        pm25_ugm3=pm25 / 10.0,
        temperature_c=temp / 100.0,
        pressure_hpa=pres / 10.0,
        humidity_pct=hum / 100.0,
        battery_v=batt / 1000.0,
        sequence=seq,
    )


@dataclass(frozen=True, slots=True)
class Uplink:
    """One uplink frame as transmitted by a device."""

    dev_eui: str
    fcnt: int
    payload: bytes
    sf: int
    sent_at: int  # epoch seconds
    frequency_mhz: float = 868.1

    @property
    def phy_size(self) -> int:
        return len(self.payload) + MAC_OVERHEAD


@dataclass(frozen=True, slots=True)
class GatewayReception:
    """Reception metadata one gateway attaches to a received uplink."""

    gateway_id: str
    rssi_dbm: float
    snr_db: float


@dataclass(frozen=True)
class ReceivedUplink:
    """An uplink after network-server deduplication.

    Carries the union of gateway receptions — the paper's dataport uses
    exactly this metadata ("identifies the originating sensor and the
    gateway from which it was received") to drive digital twins.
    """

    uplink: Uplink
    receptions: tuple[GatewayReception, ...]
    received_at: int

    @property
    def best_reception(self) -> GatewayReception:
        return max(self.receptions, key=lambda r: r.rssi_dbm)

    @property
    def gateway_ids(self) -> tuple[str, ...]:
        return tuple(r.gateway_id for r in self.receptions)
