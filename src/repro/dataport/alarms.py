"""Alarm model: what the dataport raises when the system misbehaves.

Alarms carry a severity, a machine-readable kind, and the emitting
source.  The :class:`AlarmLog` deduplicates repeated raises of the same
(kind, source) pair while the alarm stays active, supports explicit
clearing, and keeps history for the dashboards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """Ordered severities; higher is worse."""

    INFO = 0
    WARNING = 1
    CRITICAL = 2


class AlarmKind(enum.Enum):
    """The failure classes the paper's monitoring distinguishes."""

    SENSOR_OVERDUE = "sensor_overdue"
    SENSOR_DECAY_SUSPECTED = "sensor_decay_suspected"
    BATTERY_LOW = "battery_low"
    BATTERY_CRITICAL = "battery_critical"
    GATEWAY_OUTAGE = "gateway_outage"
    BACKEND_DOWN = "backend_down"
    MQTT_DOWN = "mqtt_down"
    DATAPORT_DOWN = "dataport_down"
    DATA_ANOMALY = "data_anomaly"


@dataclass(frozen=True)
class Alarm:
    """One alarm occurrence."""

    kind: AlarmKind
    source: str
    severity: Severity
    message: str
    raised_at: int

    @property
    def key(self) -> tuple[AlarmKind, str]:
        return (self.kind, self.source)


class AlarmLog:
    """Active-alarm registry with dedup, clearing, and history.

    Raising the same (kind, source) while it is already active is
    suppressed (one notification per incident, not one per detection
    cycle — the alarm-storm control the paper's hierarchy exists for).
    """

    def __init__(self) -> None:
        self._active: dict[tuple[AlarmKind, str], Alarm] = {}
        self.history: list[Alarm] = []
        self.suppressed = 0

    def raise_alarm(self, alarm: Alarm) -> bool:
        """Register an alarm; returns True when it is a *new* incident."""
        if alarm.key in self._active:
            self.suppressed += 1
            return False
        self._active[alarm.key] = alarm
        self.history.append(alarm)
        return True

    def clear(self, kind: AlarmKind, source: str) -> bool:
        """Mark an incident resolved; returns True when it was active."""
        return self._active.pop((kind, source), None) is not None

    # -- views -----------------------------------------------------------
    def active(
        self,
        *,
        min_severity: Severity = Severity.INFO,
        kind: AlarmKind | None = None,
    ) -> list[Alarm]:
        alarms = [
            a
            for a in self._active.values()
            if a.severity >= min_severity and (kind is None or a.kind is kind)
        ]
        return sorted(alarms, key=lambda a: (-a.severity, a.raised_at))

    def is_active(self, kind: AlarmKind, source: str) -> bool:
        return (kind, source) in self._active

    def __len__(self) -> int:
        return len(self._active)
