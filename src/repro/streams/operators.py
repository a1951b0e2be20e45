"""Stream-processing operators.

Paper §3 (developers' view): "we demonstrate ... how to streamline the
whole data flow, including segmentation, chaining, and automation."
Operators are push-based: an upstream stage calls ``emit`` on its
downstream stages; chains compose operators; windows and segmenters
group events by event time.  Events are ``(timestamp, value)`` pairs
with an optional tag dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Event:
    """One stream element."""

    timestamp: int
    value: float
    tags: dict = field(default_factory=dict, hash=False, compare=False)


class Operator:
    """Base push operator; subclasses override :meth:`process`."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self._downstream: list[Operator] = []
        self.received = 0
        self.emitted = 0

    def to(self, *operators: "Operator") -> "Operator":
        """Connect downstream stages; returns the *last* for chaining."""
        self._downstream.extend(operators)
        return operators[-1] if operators else self

    def disconnect(self, operator: "Operator") -> bool:
        """Remove a downstream link (demo: "change the dependency of the
        data flow")."""
        if operator in self._downstream:
            self._downstream.remove(operator)
            return True
        return False

    def push(self, event: Event) -> None:
        """Feed one event into this stage."""
        self.received += 1
        self.process(event)

    def process(self, event: Event) -> None:
        self.emit(event)

    def emit(self, event: Event) -> None:
        self.emitted += 1
        for op in self._downstream:
            op.push(event)

    def flush(self) -> None:
        """Propagate end-of-stream (windows emit partial buckets)."""
        for op in self._downstream:
            op.flush()


class Source(Operator):
    """Entry point of a chain or flow graph."""


class Map(Operator):
    """Apply ``fn(event) -> event`` to every element."""

    def __init__(self, fn: Callable[[Event], Event], name: str | None = None) -> None:
        super().__init__(name)
        self._fn = fn

    def process(self, event: Event) -> None:
        self.emit(self._fn(event))


class Filter(Operator):
    """Keep only events where ``predicate(event)`` is true."""

    def __init__(
        self, predicate: Callable[[Event], bool], name: str | None = None
    ) -> None:
        super().__init__(name)
        self._predicate = predicate

    def process(self, event: Event) -> None:
        if self._predicate(event):
            self.emit(event)


class TumblingWindow(Operator):
    """Fixed, non-overlapping event-time windows.

    Emits one aggregate event per closed window, timestamped at the
    window start.  Windows close when an event arrives at or past the
    boundary (event-time semantics; late events re-open nothing and are
    folded into the current window).
    """

    def __init__(
        self,
        width_s: int,
        aggregate: Callable[[np.ndarray], float] = np.mean,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if width_s <= 0:
            raise ValueError("width_s must be positive")
        self.width_s = width_s
        self._aggregate = aggregate
        self._bucket_start: int | None = None
        self._values: list[float] = []

    def process(self, event: Event) -> None:
        bucket = (event.timestamp // self.width_s) * self.width_s
        if self._bucket_start is None:
            self._bucket_start = bucket
        if bucket > self._bucket_start:
            self._close()
            self._bucket_start = bucket
        self._values.append(event.value)

    def _close(self) -> None:
        if self._bucket_start is not None and self._values:
            agg = float(self._aggregate(np.asarray(self._values)))
            self.emit(Event(self._bucket_start, agg))
        self._values = []

    def flush(self) -> None:
        self._close()
        self._bucket_start = None
        super().flush()


class Segmenter(Operator):
    """Split a stream into segments at time gaps (paper: "segmentation").

    A gap longer than ``max_gap_s`` between consecutive events closes the
    current segment.  Each completed segment is delivered to
    ``on_segment`` and forwarded downstream as its constituent events
    tagged with a segment id.
    """

    def __init__(
        self,
        max_gap_s: int,
        on_segment: Callable[[list[Event]], None] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if max_gap_s <= 0:
            raise ValueError("max_gap_s must be positive")
        self.max_gap_s = max_gap_s
        self._on_segment = on_segment
        self._segment: list[Event] = []
        self._segment_id = 0
        self.segments_closed = 0

    def process(self, event: Event) -> None:
        if self._segment and event.timestamp - self._segment[-1].timestamp > self.max_gap_s:
            self._close()
        self._segment.append(event)

    def _close(self) -> None:
        if not self._segment:
            return
        if self._on_segment is not None:
            self._on_segment(list(self._segment))
        for e in self._segment:
            self.emit(
                Event(e.timestamp, e.value, {**e.tags, "segment": self._segment_id})
            )
        self.segments_closed += 1
        self._segment_id += 1
        self._segment = []

    def flush(self) -> None:
        self._close()
        super().flush()


class Sink(Operator):
    """Terminal stage collecting events (or forwarding to a callback)."""

    def __init__(
        self, callback: Callable[[Event], None] | None = None, name: str | None = None
    ) -> None:
        super().__init__(name)
        self._callback = callback
        self.events: list[Event] = []

    def process(self, event: Event) -> None:
        self.events.append(event)
        if self._callback is not None:
            self._callback(event)

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.events])

    def timestamps(self) -> np.ndarray:
        return np.array([e.timestamp for e in self.events], dtype=np.int64)


def chain(*operators: Operator) -> tuple[Operator, Operator]:
    """Wire operators linearly; returns (head, tail)."""
    if not operators:
        raise ValueError("chain needs at least one operator")
    for up, down in zip(operators, operators[1:]):
        up.to(down)
    return operators[0], operators[-1]
