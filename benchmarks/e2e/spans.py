"""Spans recorded from outside the program, for the traced trial only.

The benchmark hands the program thin stand-ins for its own objects — a
``__getattr__`` delegator around each store layer, the replication log,
the network server and the follower's store, and a ``Broker`` subclass
(the broker hands *itself* to its clients, so a delegator would be
bypassed) — each of which records ``(id, name, start_ns, end_ns,
parent, journey)`` around one call into the layer.  Spans stay in
memory until the trial ends.  Nothing under ``src/`` is edited; spans
inside the program are ROADMAP item 2.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Callable

from repro.mqtt import Broker


class Tracer:
    """In-memory span recorder; one per traced trial."""

    def __init__(self) -> None:
        #: (id, name, start_ns, end_ns, parent id, journey id)
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        #: Set by the driver thread before each journey.  Spans on the
        #: loop thread (follower apply) carry whichever journey is
        #: current when they end.
        self.journey = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        local = self._local
        parent = getattr(local, "current", 0)
        span_id = local.current = next(self._ids)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            local.current = parent
            self.spans.append((span_id, name, start, end, parent, self.journey))

    def timed(self, name: str, fn):
        """``fn`` wrapped so every call records a span."""
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def self_ns(self) -> dict[str, list[int]]:
        """Per span name, each timed journey's self time: each span's
        duration minus the part its child spans cover, summed over the
        journey's spans of that name.  Spans outside a timed journey
        (journey < 0) are dropped."""
        covered: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            covered[parent] += end - start
        per: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for span_id, name, start, end, _, journey in self.spans:
            if journey >= 0:
                per[name][journey] += end - start - covered[span_id]
        return {name: list(ns.values()) for name, ns in per.items()}

    def span_ns(self) -> dict[str, list[int]]:
        """Per span name, the whole duration (children included) of
        each span inside a timed journey."""
        per: dict[str, list[int]] = defaultdict(list)
        for _, name, start, end, _, journey in self.spans:
            if journey >= 0:
                per[name].append(end - start)
        return per


def in_us(
    samples: dict[str, list[int]], typical: Callable[[list[int]], float]
) -> dict[str, float]:
    """Each name's typical sample (``median``, ``fmean``) in
    microseconds; a name without samples reads 0."""
    return defaultdict(
        float, {name: typical(ns) / 1e3 for name, ns in samples.items()}
    )


class SpanProxy:
    """Delegator recording a span around the named methods of one
    layer; every other attribute passes straight through."""

    def __init__(self, target, tracer: Tracer, spans: dict[str, str]) -> None:
        self._target = target
        for method, name in spans.items():
            setattr(self, method, tracer.timed(name, getattr(target, method)))

    def __getattr__(self, name: str):
        return getattr(self._target, name)


class ScanProxy(SpanProxy):
    """The store under the server's ``CachingStore``: spans the
    planner's batch hook and counts what the scans cost and returned."""

    def __init__(self, target, tracer: Tracer) -> None:
        super().__init__(target, tracer, {})
        self._tracer = tracer
        self.reset()

    def reset(self) -> None:
        """Forget the warm-up: count the timed journeys only."""
        self.calls = 0
        self.scanned_points = 0
        self.returned_points = 0

    def _run_unique_batch(self, queries, parallel=None):
        results = self._tracer.call(
            "tsdb.plan_scan",
            self._target._run_unique_batch,
            queries,
            parallel=parallel,
        )
        self.calls += 1
        for result in results:
            self.scanned_points += result.scanned_points
            self.returned_points += sum(len(s.slice) for s in result.series)
        return results


class SpanBroker(Broker):
    """``Broker`` with a span around ``publish`` (delivery is run to
    completion inside it, so the span covers the subscribers too)."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def publish(self, topic, payload, *, qos=0, retain=False):
        return self._tracer.call(
            "mqtt.publish", super().publish, topic, payload, qos=qos, retain=retain
        )
