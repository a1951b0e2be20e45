"""A fixed unit of work that tells how fast the machine is right now.

The boxes this benchmark runs on are shared, and what is shared is the
processor itself: with zero steal time and nothing else running in the
guest, one fixed single-threaded loop reads 5.0 ms in one quarter of a
second and 6.5 ms in the next, and sits a third slower for minutes at a
time.  CPU time moves exactly as wall time does, so no clock in the
guest sees through it, and every absolute time the benchmark takes
moves with it: over ten runs the median journey time of one unchanged
commit spread by 11-34 % (inter-quartile distance over median).

So the driver thread runs this unit — the same instructions every time
and none of them the program's — after each set-up step and between
journeys, about ten times a second, and a trial's times are divided by
how much slower than :data:`NOMINAL_UNIT_NS` its median unit ran: set-up
times by the units of the set-up, journey times by the units between
the journeys.  Every time the benchmark reports then reads as that of a
quiet box.  Measured on the same trials, that brought the spread of the
median journey time from 13-26 % to 3-9 %; on a quiet box the division
changes nothing.  What it cannot see is a neighbour on the *other*
core, which slows the program's second thread and not this loop.

The unit mixes the three kinds of work the journeys are made of:
interpreter-bound dict traffic, C-level string building and parsing
(``json``), and memory-bound numpy passes.  It uses only the standard
library and numpy, so no change to the program can move it.
"""

from __future__ import annotations

import json
import time
from statistics import median

import numpy as np

#: What one unit takes on the 2-core box of the first baseline when
#: that box is quiet: scaled times read as that box's milliseconds.
NOMINAL_UNIT_NS = 5_000_000
#: The least time between two units in a journey loop.
PERIOD_NS = 100_000_000

_ARRAY = np.random.default_rng(20180326).random(30_000)
_DOC = {
    "results": [
        {"tags": {"node": f"n{s:02d}"}, "dps": {str(60 * i): i * 0.25 for i in range(250)}}
        for s in range(12)
    ]
}


def run_unit() -> int:
    """Run one calibration unit; return the nanoseconds it took."""
    t0 = time.perf_counter_ns()
    counts: dict[int, int] = {}
    for i in range(12_000):
        counts[i & 127] = counts.get(i & 127, 0) + i
    json.loads(json.dumps(_DOC))
    order = np.argsort(_ARRAY, kind="stable")
    _ARRAY[order].cumsum()
    return time.perf_counter_ns() - t0


class Speedometer:
    """One trial's set-up steps and the units run beside its work."""

    def __init__(self, origin_ns: int) -> None:
        #: name -> nanoseconds, in order; no unit runs inside a step
        self.steps: dict[str, int] = {}
        self._mark = origin_ns
        self._setup_units: list[int] = []
        self._journey_units: list[int] = []
        self._last = 0

    def step(self, name: str, *, quiet: bool = True) -> None:
        """Close the set-up step that began where the last one ended
        (the first: at the origin); then run a unit, unless the program
        is still at work on another thread (not ``quiet``)."""
        self.steps[name] = time.monotonic_ns() - self._mark
        if quiet:
            self._setup_units.append(run_unit())
        self._mark = time.monotonic_ns()

    def sample(self) -> None:
        """Run a unit between journeys."""
        self._journey_units.append(run_unit())
        self._last = time.monotonic_ns()

    def tick(self) -> None:
        """:meth:`sample` if the last unit is :data:`PERIOD_NS` old."""
        if time.monotonic_ns() - self._last >= PERIOD_NS:
            self.sample()

    @property
    def setup_slowdown(self) -> float:
        return median(self._setup_units) / NOMINAL_UNIT_NS

    @property
    def journey_slowdown(self) -> float:
        return median(self._journey_units) / NOMINAL_UNIT_NS
