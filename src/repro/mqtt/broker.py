"""In-process MQTT-style broker.

The CTT pipeline is event-driven: TTN pushes uplinks over MQTT, the
dataport and storage writers subscribe.  This module reproduces the broker
semantics the system depends on — topic-filter routing, QoS 0/1 delivery,
retained messages, and last-will — as a synchronous in-process message
bus.  "Network" unreliability is injected per-client via a drop
probability so QoS 1 redelivery is actually exercised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .topics import topic_matches, validate_filter, validate_topic

MessageHandler = Callable[["Message"], None]


@dataclass(frozen=True, slots=True)
class Message:
    """One published application message."""

    topic: str
    payload: bytes
    qos: int = 0
    retain: bool = False
    mid: int = 0  # broker-assigned message id

    def text(self) -> str:
        return self.payload.decode("utf-8")


@dataclass
class Subscription:
    filter: str
    qos: int
    handler: MessageHandler


@dataclass
class _Session:
    client_id: str
    subscriptions: dict[str, Subscription] = field(default_factory=dict)
    connected: bool = False
    will: Message | None = None
    # QoS 1 in-flight messages awaiting ack: mid -> message
    inflight: dict[int, Message] = field(default_factory=dict)
    delivered: int = 0
    dropped: int = 0
    drop_probability: float = 0.0


class MqttError(RuntimeError):
    """Protocol misuse (publishing while disconnected, bad QoS, ...)."""


class Broker:
    """Synchronous in-process broker with QoS 0/1, retain, and wills.

    Delivery is immediate and run-to-completion inside :meth:`publish`
    (matching how an event-driven pipeline behaves under light load);
    QoS 1 messages that a lossy client "misses" stay in-flight and are
    redelivered by :meth:`redeliver`, normally driven by the simulation
    scheduler.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._sessions: dict[str, _Session] = {}
        self._retained: dict[str, Message] = {}
        self._mid = itertools.count(1)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.published = 0

    # -- connection lifecycle -------------------------------------------
    def connect(
        self,
        client_id: str,
        *,
        clean_session: bool = True,
        will: Message | None = None,
        drop_probability: float = 0.0,
    ) -> "Client":
        """Attach a client; reconnecting with ``clean_session=False`` keeps
        subscriptions and in-flight QoS 1 messages."""
        if not 0.0 <= drop_probability < 1.0:
            raise MqttError(f"drop_probability out of range: {drop_probability}")
        session = self._sessions.get(client_id)
        if session is None or clean_session:
            session = _Session(client_id=client_id)
            self._sessions[client_id] = session
        session.connected = True
        session.will = will
        session.drop_probability = drop_probability
        return Client(self, session)

    def disconnect(self, client_id: str, *, graceful: bool = True) -> None:
        session = self._sessions.get(client_id)
        if session is None or not session.connected:
            return
        session.connected = False
        if not graceful and session.will is not None:
            self.publish(
                session.will.topic,
                session.will.payload,
                qos=session.will.qos,
                retain=session.will.retain,
            )
        session.will = None

    # -- pub/sub ---------------------------------------------------------
    def publish(
        self, topic: str, payload: bytes | str, *, qos: int = 0, retain: bool = False
    ) -> Message:
        """Route one message to all matching, connected subscribers."""
        validate_topic(topic)
        if qos not in (0, 1):
            raise MqttError(f"unsupported QoS: {qos} (broker supports 0 and 1)")
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        msg = Message(topic, payload, qos=qos, retain=retain, mid=next(self._mid))
        self.published += 1

        if retain:
            if payload:
                self._retained[topic] = msg
            else:
                self._retained.pop(topic, None)  # empty retained payload clears

        for session in self._sessions.values():
            if not session.connected:
                continue
            sub = _best_match(session, topic)
            if sub is None:
                continue
            self._deliver(session, sub, msg)
        return msg

    def _deliver(self, session: _Session, sub: Subscription, msg: Message) -> None:
        effective_qos = min(msg.qos, sub.qos)
        lost = (
            session.drop_probability > 0.0
            and self._rng.random() < session.drop_probability
        )
        if lost:
            session.dropped += 1
            if effective_qos >= 1:
                session.inflight[msg.mid] = msg
            return
        sub.handler(msg)
        session.delivered += 1
        # QoS 1: handler return == ack in this in-process model.

    def redeliver(self, client_id: str | None = None) -> int:
        """Retry undelivered QoS 1 messages; returns how many got through."""
        sessions = (
            [self._sessions[client_id]]
            if client_id is not None
            else list(self._sessions.values())
        )
        delivered = 0
        for session in sessions:
            if not session.connected or not session.inflight:
                continue
            for mid in sorted(session.inflight):
                msg = session.inflight[mid]
                sub = _best_match(session, msg.topic)
                if sub is None:
                    del session.inflight[mid]
                    continue
                lost = (
                    session.drop_probability > 0.0
                    and self._rng.random() < session.drop_probability
                )
                if lost:
                    session.dropped += 1
                    continue
                sub.handler(msg)
                session.delivered += 1
                delivered += 1
                del session.inflight[mid]
        return delivered

    def retained_for(self, filter_: str) -> list[Message]:
        validate_filter(filter_)
        return [
            m for t, m in sorted(self._retained.items()) if topic_matches(filter_, t)
        ]

    def stats(self) -> dict[str, int]:
        return {
            "published": self.published,
            "sessions": len(self._sessions),
            "connected": sum(1 for s in self._sessions.values() if s.connected),
            "retained": len(self._retained),
            "inflight": sum(len(s.inflight) for s in self._sessions.values()),
        }


def _best_match(session: _Session, topic: str) -> Subscription | None:
    """Most specific matching subscription (spec: deliver once per client)."""
    best: Subscription | None = None
    for sub in session.subscriptions.values():
        if topic_matches(sub.filter, topic):
            if best is None or sub.qos > best.qos:
                best = sub
    return best


class Client:
    """Handle bound to one broker session."""

    def __init__(self, broker: Broker, session: _Session) -> None:
        self._broker = broker
        self._session = session

    @property
    def connected(self) -> bool:
        return self._session.connected

    @property
    def stats(self) -> dict[str, int]:
        return {
            "delivered": self._session.delivered,
            "dropped": self._session.dropped,
            "inflight": len(self._session.inflight),
        }

    def subscribe(self, filter_: str, handler: MessageHandler, *, qos: int = 0) -> None:
        """Register a handler; retained messages replay immediately."""
        validate_filter(filter_)
        if qos not in (0, 1):
            raise MqttError(f"unsupported QoS: {qos}")
        if not self._session.connected:
            raise MqttError("subscribe on a disconnected client")
        self._session.subscriptions[filter_] = Subscription(filter_, qos, handler)
        for msg in self._broker.retained_for(filter_):
            handler(msg)
            self._session.delivered += 1

    def unsubscribe(self, filter_: str) -> bool:
        return self._session.subscriptions.pop(filter_, None) is not None

    def publish(
        self, topic: str, payload: bytes | str, *, qos: int = 0, retain: bool = False
    ) -> Message:
        if not self._session.connected:
            raise MqttError("publish on a disconnected client")
        return self._broker.publish(topic, payload, qos=qos, retain=retain)

    def disconnect(self, *, graceful: bool = True) -> None:
        self._broker.disconnect(self._session.client_id, graceful=graceful)
