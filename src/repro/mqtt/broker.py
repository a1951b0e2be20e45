"""In-process MQTT-style broker.

The CTT pipeline is event-driven: TTN pushes uplinks over MQTT, the
dataport and storage writers subscribe.  This module reproduces the broker
semantics the system depends on — topic-filter routing, QoS 0/1
validation, retained messages, subscribe/unsubscribe — as a synchronous
in-process message bus.  Delivery runs to completion inside
:meth:`Broker.publish` and loses nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

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


class MqttError(RuntimeError):
    """Protocol misuse (an unsupported QoS)."""


class Broker:
    """Synchronous in-process broker with QoS 0/1 and retain.

    Delivery is immediate and run-to-completion inside :meth:`publish`
    (matching how an event-driven pipeline behaves under light load): a
    handler's return is its ack, so no message is ever left in flight.
    """

    def __init__(self) -> None:
        # client id -> that client's subscriptions, by filter
        self._sessions: dict[str, dict[str, Subscription]] = {}
        self._retained: dict[str, Message] = {}
        self._mid = itertools.count(1)
        self.published = 0

    def connect(self, client_id: str) -> "Client":
        """Attach a client; connecting again under the same id starts a
        fresh session (the old handle's subscriptions no longer match)."""
        subscriptions: dict[str, Subscription] = {}
        self._sessions[client_id] = subscriptions
        return Client(self, subscriptions)

    def publish(
        self, topic: str, payload: bytes | str, *, qos: int = 0, retain: bool = False
    ) -> Message:
        """Route one message to every client with a matching subscription."""
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

        for subscriptions in self._sessions.values():
            sub = _best_match(subscriptions, topic)
            if sub is not None:
                sub.handler(msg)
        return msg

    def retained_for(self, filter_: str) -> list[Message]:
        validate_filter(filter_)
        return [
            m for t, m in sorted(self._retained.items()) if topic_matches(filter_, t)
        ]

    def stats(self) -> dict[str, int]:
        return {
            "published": self.published,
            "sessions": len(self._sessions),
            "retained": len(self._retained),
            # Always 0: nothing is ever in flight.  Kept only because the
            # frozen benchmarks/e2e workloads.py reads it.
            "inflight": 0,
        }


def _best_match(
    subscriptions: dict[str, Subscription], topic: str
) -> Subscription | None:
    """The matching subscription with the highest QoS, the earliest on a
    tie (spec: deliver once per client, however many filters match)."""
    best: Subscription | None = None
    for sub in subscriptions.values():
        if topic_matches(sub.filter, topic):
            if best is None or sub.qos > best.qos:
                best = sub
    return best


class Client:
    """Handle bound to one broker session."""

    def __init__(
        self, broker: Broker, subscriptions: dict[str, Subscription]
    ) -> None:
        self._broker = broker
        self._subscriptions = subscriptions

    def subscribe(self, filter_: str, handler: MessageHandler, *, qos: int = 0) -> None:
        """Register a handler; retained messages replay immediately."""
        validate_filter(filter_)
        if qos not in (0, 1):
            raise MqttError(f"unsupported QoS: {qos}")
        self._subscriptions[filter_] = Subscription(filter_, qos, handler)
        for msg in self._broker.retained_for(filter_):
            handler(msg)

    def unsubscribe(self, filter_: str) -> bool:
        return self._subscriptions.pop(filter_, None) is not None

    def publish(
        self, topic: str, payload: bytes | str, *, qos: int = 0, retain: bool = False
    ) -> Message:
        return self._broker.publish(topic, payload, qos=qos, retain=retain)
