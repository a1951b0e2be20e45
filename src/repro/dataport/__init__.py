"""The dataport: actor-based monitoring with digital twins (paper §2.3)."""

from .actors import (
    Actor,
    ActorRef,
    ActorSystem,
    DeadLetter,
    SupervisionDirective,
    SupervisorStrategy,
)
from .alarms import Alarm, AlarmKind, AlarmLog, Severity
from .app import (
    BatchingTsdbWriter,
    Dataport,
    DataportStats,
    TtnMqttBridge,
    UPLINK_FILTER,
    UPLINK_TOPIC_FMT,
)
from .twins import (
    BackendTwin,
    FleetSupervisor,
    GatewayHeard,
    GatewayRecovered,
    GatewaySilent,
    GatewayTwin,
    HealthCheck,
    SensorOverdue,
    SensorRecovered,
    SensorTwin,
    TwinConfig,
    UplinkObserved,
)
from .watchdog import Watchdog, WatchdogStats

__all__ = [
    "Actor",
    "ActorRef",
    "ActorSystem",
    "Alarm",
    "AlarmKind",
    "AlarmLog",
    "BackendTwin",
    "BatchingTsdbWriter",
    "Dataport",
    "DataportStats",
    "DeadLetter",
    "FleetSupervisor",
    "GatewayHeard",
    "GatewayRecovered",
    "GatewaySilent",
    "GatewayTwin",
    "HealthCheck",
    "SensorOverdue",
    "SensorRecovered",
    "SensorTwin",
    "Severity",
    "SupervisionDirective",
    "SupervisorStrategy",
    "TtnMqttBridge",
    "TwinConfig",
    "UPLINK_FILTER",
    "UPLINK_TOPIC_FMT",
    "UplinkObserved",
    "Watchdog",
    "WatchdogStats",
]
