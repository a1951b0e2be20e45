"""A read beside a write, and a write beside a read, on one series.

The dashboards read a series while uplinks keep writing it.  These tests
visit every point at which a second thread could interleave, on one
thread and deterministically: ``sys.settrace`` runs a read (or a put)
before every line :mod:`repro.tsdb.series` executes during a write (or
a read).  A ``SeriesStore`` publishes each state in one assignment and a
read unpacks it once, so

- a read at any line of a write path sees the whole old state or the
  whole new one, never one state's timestamps with another's values;
- a put at any line of a read raises nothing and loses no point it
  acknowledged, and the read answers one of the states that were
  published while it ran.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.tsdb import TSDB
from repro.tsdb import series as series_module
from repro.tsdb.series import SeriesStore

_SERIES_FILE = series_module.__file__
_PRELOAD = np.arange(10, 110, 10, dtype=np.int64)  # 10 points, t = 10..100


def _at_every_line(action, fn, *args):
    """``fn(*args)``, with ``action()`` run before every line executed in
    ``repro/tsdb/series.py`` meanwhile; returns (result, lines visited).

    The interpreter suspends tracing while a trace function runs, so
    what ``action`` itself calls in that module is not visited."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            action()
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename == _SERIES_FILE else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, lines


# ---------------------------------------------------------------------------
# A read at every line of each write path
# ---------------------------------------------------------------------------


def _preloaded() -> SeriesStore:
    store = SeriesStore()
    store.extend_batch(_PRELOAD, _PRELOAD * 0.5)
    return store


def _reads(store: SeriesStore) -> tuple:
    """Everything a reader can see of the series, as comparable values."""
    whole = store.scan()
    window = store.scan(25, 75)
    return (
        whole.timestamps.tobytes(), whole.values.tobytes(),
        window.timestamps.tobytes(), window.values.tobytes(),
        store.latest(), len(store),
    )


_WRITES = {
    "in-order-append": lambda s: s.append(500, 1.5),
    "late-append": lambda s: s.append(45, -1.0),
    "duplicate-append": lambda s: s.append(50, -2.0),
    "unordered-extend_batch": lambda s: s.extend_batch(
        [300, 5, 20, 20], [1.0, 2.0, 3.0, 4.0]
    ),
    "growth": lambda s: s.extend_batch(
        np.arange(1_000, 1_300), np.linspace(0.0, 1.0, 300)
    ),
    "delete_before": lambda s: s.delete_before(35),
}


@pytest.mark.parametrize("write", list(_WRITES))
def test_a_read_at_every_line_of_a_write_sees_a_whole_state(write):
    apply = _WRITES[write]
    twin = _preloaded()
    apply(twin)
    new = _reads(twin)
    store = _preloaded()
    old = _reads(store)
    assert old != new

    seen = []
    _, lines = _at_every_line(lambda: seen.append(_reads(store)), apply, store)
    assert lines > 1
    # every read is one state or the other, and the write is seen
    # crossing from the one to the other
    assert set(seen) == {old, new}
    assert seen[0] == old and seen[-1] == new
    assert _reads(store) == new


# ---------------------------------------------------------------------------
# A put at every line of each read
# ---------------------------------------------------------------------------

_METRIC, _TAGS = "air.co2.ppm", {"node": "n0"}


def _columns(db, key) -> tuple[list, list]:
    sl = db.series_slice(key)
    return sl.timestamps.tolist(), sl.values.tolist()


_READS = {
    "scan": lambda db, key: _columns(db, key),
    "latest": lambda db, key: db.series_latest(key),
    "len": lambda db, key: len(db._series(key)),
}


def _as_read(read: str, points: dict[int, float]):
    """What ``read`` answers for a series holding ``points``."""
    ts = sorted(points)
    if read == "scan":
        return ts, [points[t] for t in ts]
    if read == "latest":
        return ts[-1], points[ts[-1]]
    return len(ts)


@pytest.mark.parametrize("pending", [False, True], ids=["settled", "late-point"])
@pytest.mark.parametrize("read", list(_READS))
def test_a_put_at_every_line_of_a_read_is_kept(read, pending):
    """Puts cycle through a late point, a duplicate and an in-order
    point; ``pending`` writes a late point just before the read."""
    db = TSDB()
    key = db.put_series(_METRIC, _PRELOAD, _PRELOAD * 0.5, _TAGS)
    acked = {int(t): float(t) * 0.5 for t in _PRELOAD}
    if pending:
        db.put(_METRIC, 15, -1.0, _TAGS)
        acked[15] = -1.0
    states = [_as_read(read, acked)]
    newest = int(_PRELOAD[-1])

    def put() -> None:
        nonlocal newest
        i = len(states)
        if i % 3 == 0:
            t = 1 + 7 * i % 90  # late: below the newest
        elif i % 3 == 1:
            t = newest  # a duplicate of the newest
        else:
            t = newest = newest + 10
        db.put(_METRIC, t, 1_000.0 + i, _TAGS)
        acked[t] = 1_000.0 + i
        states.append(_as_read(read, acked))

    answer, lines = _at_every_line(put, _READS[read], db, key)
    assert lines > 0 and len(states) == lines + 1
    assert answer in states
    assert _columns(db, key) == _as_read("scan", acked)
    assert db.series_latest(key) == _as_read("latest", acked)
    assert db.point_count == len(acked)


def test_no_read_writes():
    """Reads leave the published state as it was: the same object."""
    db = TSDB()
    key = db.put_series(_METRIC, _PRELOAD, _PRELOAD * 0.5, _TAGS)
    db.put(_METRIC, 15, -1.0, _TAGS)  # a late point: nothing is pending
    store = db._series(key)
    cols = store._cols
    db.series_slice(key)
    db.series_slice(key, 20, 40)
    db.series_latest(key)
    len(store)
    assert db.point_count == len(_PRELOAD) + 1
    assert store._cols is cols
