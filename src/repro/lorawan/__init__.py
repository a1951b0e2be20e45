"""LoRaWAN backbone simulator: airtime, radio, gateways, network server."""

from .airtime import (
    BANDWIDTH_HZ,
    REQUIRED_SNR_DB,
    SENSITIVITY_DBM,
    SPREADING_FACTORS,
    DutyCycle,
    InvalidSpreadingFactor,
    airtime_s,
    symbol_time_s,
    validate_sf,
)
from .device import LoraDevice, TransmitResult
from .frames import (
    MAC_OVERHEAD,
    PAYLOAD_SIZE,
    GatewayReception,
    Measurements,
    PayloadError,
    ReceivedUplink,
    Uplink,
    decode_measurements,
    encode_measurements,
)
from .gateway import Gateway, RadioPlane
from .network_server import (
    DeviceSession,
    NetworkServer,
    uplink_from_json,
    uplink_to_json,
)
from .radio import (
    DEFAULT_TX_POWER_DBM,
    NOISE_FLOOR_DBM,
    LinkBudget,
    PropagationModel,
)

__all__ = [
    "BANDWIDTH_HZ",
    "DEFAULT_TX_POWER_DBM",
    "DeviceSession",
    "DutyCycle",
    "Gateway",
    "GatewayReception",
    "InvalidSpreadingFactor",
    "LinkBudget",
    "LoraDevice",
    "MAC_OVERHEAD",
    "Measurements",
    "NOISE_FLOOR_DBM",
    "NetworkServer",
    "PAYLOAD_SIZE",
    "PayloadError",
    "PropagationModel",
    "REQUIRED_SNR_DB",
    "RadioPlane",
    "ReceivedUplink",
    "SENSITIVITY_DBM",
    "SPREADING_FACTORS",
    "TransmitResult",
    "Uplink",
    "airtime_s",
    "decode_measurements",
    "encode_measurements",
    "symbol_time_s",
    "uplink_from_json",
    "uplink_to_json",
    "validate_sf",
]
