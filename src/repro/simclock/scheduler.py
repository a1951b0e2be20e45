"""Discrete-event scheduler driving the simulation.

A single priority queue orders callbacks by simulated timestamp.  Sensor
nodes schedule their next sample, digital twins schedule timeout checks,
the watchdog schedules pings — all against one scheduler, so a whole
multi-day deployment replays deterministically.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .clock import SimClock

EventCallback = Callable[[int], None]


@dataclass(order=True)
class _Entry:
    when: int
    seq: int
    callback: EventCallback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by :meth:`Scheduler.call_at`; supports cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    @property
    def when(self) -> int:
        return self._entry.when


class Scheduler:
    """Priority-queue event scheduler bound to a :class:`SimClock`.

    Events scheduled for the same timestamp run in scheduling order
    (FIFO), which keeps runs deterministic.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._queue: list[_Entry] = []
        self._seq = itertools.count()

    def call_at(self, when: int, callback: EventCallback) -> EventHandle:
        """Run ``callback(now)`` at simulated time ``when``.

        Events in the past are clamped to "now" and run on the next step.
        """
        when = max(int(when), self.clock.now())
        entry = _Entry(when=when, seq=next(self._seq), callback=callback)
        heapq.heappush(self._queue, entry)
        return EventHandle(entry)

    def call_after(self, delay: int, callback: EventCallback) -> EventHandle:
        return self.call_at(self.clock.now() + max(0, int(delay)), callback)

    def call_every(
        self, interval: int, callback: EventCallback, *, start_after: int | None = None
    ) -> EventHandle:
        """Run ``callback`` every ``interval`` seconds until cancelled.

        The returned handle cancels the *entire* recurring series.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        first = self.clock.now() + (interval if start_after is None else start_after)
        series = _Entry(when=first, seq=next(self._seq), callback=callback)

        def tick(now: int) -> None:
            if series.cancelled:
                return
            callback(now)
            if not series.cancelled:
                nxt = self.call_at(now + interval, tick)
                series.when = nxt.when  # keep the handle's `when` informative

        heapq.heappush(
            self._queue, _Entry(when=first, seq=series.seq, callback=tick)
        )
        # The pushed entry and `series` share cancellation through closure:
        # `tick` checks `series.cancelled` before acting.
        return EventHandle(series)

    def pending(self) -> int:
        """Number of queued, non-cancelled events."""
        return sum(1 for e in self._queue if not e.cancelled)

    def step(self) -> bool:
        """Run the next event, advancing the clock to it.

        Returns False when the queue is empty.
        """
        self._drop_cancelled()
        if not self._queue:
            return False
        entry = heapq.heappop(self._queue)
        # Events can be past-due when the clock was advanced directly
        # (e.g. jumping over a backfilled history window); they run late
        # at the current time rather than dragging the clock backwards.
        if entry.when > self.clock.now():
            self.clock.advance_to(entry.when)
        entry.callback(self.clock.now())
        return True

    def run_until(self, deadline: int) -> int:
        """Run all events with ``when <= deadline``; returns events run.

        The clock finishes exactly at ``deadline`` even if the last event
        fired earlier, so follow-up code sees a consistent "now".
        """
        ran = 0
        while True:
            self._drop_cancelled()
            if not self._queue or self._queue[0].when > deadline:
                break
            self.step()
            ran += 1
        if self.clock.now() < deadline:
            self.clock.advance_to(deadline)
        return ran

    def run_for(self, seconds: int) -> int:
        return self.run_until(self.clock.now() + int(seconds))

    def _drop_cancelled(self) -> None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
