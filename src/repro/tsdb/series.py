"""In-memory storage of a single time series.

Points arrive mostly in time order (live sensor feeds) but the store must
also absorb out-of-order and duplicate timestamps (LoRaWAN retransmits,
backfilled historic imports).  A series is one sorted pair of numpy
columns: an in-order write extends them, any other write merges into
new ones, deduplicating by keeping the *latest written* value per
timestamp (OpenTSDB's overwrite semantics).  Each write publishes the
new state in one assignment, and a read unpacks it once and writes
nothing, so a reader sees the whole state before a write or the whole
state after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import MetricCounters


@dataclass(frozen=True, slots=True)
class SeriesSlice:
    """A contiguous, time-sorted view of one series.

    What :meth:`SeriesStore.scan` returns is a *read-only* view of the
    store's own columns; slices computed from it (aggregates, buckets,
    rates) own fresh arrays.
    """

    timestamps: np.ndarray  # int64, strictly increasing
    values: np.ndarray  # float64, parallel to timestamps

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def is_empty(self) -> bool:
        return len(self) == 0

    def between(self, start: int | None, end: int | None) -> "SeriesSlice":
        """View of the points with ``start <= t <= end`` (``None`` = open);
        the slice itself when that is all of them."""
        ts = self.timestamps
        a = 0 if start is None else int(ts.searchsorted(start, side="left"))
        b = ts.shape[0] if end is None else int(ts.searchsorted(end, side="right"))
        if a == 0 and b == ts.shape[0]:
            return self
        return SeriesSlice(ts[a:b], self.values[a:b])


class SeriesStore:
    """Append-optimized storage for one series.

    **One published state.**  ``_cols`` is ``(timestamps, values, n)``:
    the first ``n`` slots of two columns, sorted and duplicate-free.
    Every write builds the next state and publishes it with one
    assignment to ``_cols``; every read unpacks ``_cols`` once and
    writes nothing.  A read beside a write therefore sees the whole old
    state or the whole new one — never one state's timestamps with
    another's values — and a write beside a read is neither lost nor
    torn.  :meth:`append` is the one-row case of :meth:`extend_batch`.

    **Nothing below ``n`` is ever written in place.**  An in-order
    write fills the columns at ``>= n`` before it publishes the larger
    ``n``; everything that would change what is already there — growth
    past capacity, an out-of-order or duplicate write, a retention
    delete — builds new arrays.  A :meth:`scan` is therefore a snapshot
    without a copy: a read-only view of the columns as they were, equal
    for as long as it is held to the copy it could have been (and
    keeping a superseded buffer alive for exactly that long).

    Two monotonic counters make the store's mutation history observable
    without scanning it (the serving layer's cache/refresh validity
    checks):

    - :attr:`generation` bumps on *every* mutation (append, bulk
      extend, retention delete) — "has anything changed since I cached
      this series' query results?";
    - :attr:`reshape_generation` bumps only when a mutation is **not** a
      pure append past the current maximum timestamp (out-of-order or
      duplicate writes, retention deletes) — "may data I already saw
      have changed?".  While it holds still, history is append-only and
      previously computed prefixes of this series are final.

    Each bump also moves the same counter of the metric's
    :class:`~repro.tsdb.catalog.MetricCounters` (``writes`` /
    ``reshapes``), at the same point: before the columns change.
    """

    __slots__ = ("_cols", "generation", "reshape_generation", "_metric")

    _INITIAL = 256

    def __init__(self, metric: MetricCounters | None = None) -> None:
        self._cols: tuple[np.ndarray, np.ndarray, int] = (
            np.empty(self._INITIAL, dtype=np.int64),
            np.empty(self._INITIAL, dtype=np.float64),
            0,
        )
        self.generation = 0
        self.reshape_generation = 0
        self._metric = MetricCounters() if metric is None else metric

    def __len__(self) -> int:
        return self._cols[2]

    def append(self, timestamp: int, value: float) -> None:
        """Add a point; out-of-order and duplicate timestamps are allowed."""
        self.extend_batch((int(timestamp),), (float(value),))

    def extend_batch(self, timestamps, values) -> int:
        """Bulk-append a column of points.

        Accepts arbitrary order and duplicates; within the batch, later
        rows win on duplicate timestamps, and the whole batch wins over
        previously stored points (same last-write-wins semantics as a
        sequence of :meth:`append` calls).  Returns points accepted.
        """
        ts = np.ascontiguousarray(timestamps, dtype=np.int64)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if ts.ndim != 1 or ts.shape != vals.shape:
            raise ValueError(
                f"expected parallel 1-D columns, got {ts.shape} and {vals.shape}"
            )
        n = int(ts.shape[0])
        if n == 0:
            return 0
        self.generation += 1
        self._metric.writes += 1
        col_ts, col_vals, size = self._cols
        in_order = n == 1 or bool(np.all(ts[1:] > ts[:-1]))
        if in_order and (size == 0 or int(ts[0]) > int(col_ts[size - 1])):
            # The batch extends the sorted region: fill past ``size``
            # (in place while it fits), then publish.
            need = size + n
            if need > col_ts.shape[0]:
                cap = max(self._INITIAL, col_ts.shape[0] * 2, need)
                col_ts = np.resize(col_ts, cap)
                col_vals = np.resize(col_vals, cap)
            col_ts[size:need] = ts
            col_vals[size:need] = vals
            self._cols = (col_ts, col_vals, need)
            return n
        # The merge may rewrite already-seen history (conservatively so:
        # an internally unordered batch that still lands entirely past
        # the sorted region also takes this path).
        self.reshape_generation += 1
        self._metric.reshapes += 1
        merged_ts, merged_vals = _merge_last_wins(
            [col_ts[:size], ts], [col_vals[:size], vals]
        )
        self._cols = (merged_ts, merged_vals, int(merged_ts.shape[0]))
        return n

    def scan(self, start: int | None = None, end: int | None = None) -> SeriesSlice:
        """Sorted slice of points with ``start <= t <= end`` (inclusive):
        a read-only snapshot of the columns (see the class docstring),
        not a copy — whoever keeps points past the request copies them."""
        ts, vals, n = self._cols
        ts = ts[:n]
        lo = 0 if start is None else int(ts.searchsorted(start, side="left"))
        hi = n if end is None else int(ts.searchsorted(end, side="right"))
        ts, vals = ts[lo:hi], vals[lo:hi]
        ts.setflags(write=False)
        vals.setflags(write=False)
        return SeriesSlice(ts, vals)

    def latest(self) -> tuple[int, float] | None:
        """Most recent ``(timestamp, value)`` or None when empty."""
        ts, vals, n = self._cols
        if n == 0:
            return None
        return int(ts[n - 1]), float(vals[n - 1])

    def delete_before(self, cutoff: int) -> int:
        """Drop points strictly older than ``cutoff``; returns count dropped."""
        ts, vals, n = self._cols
        lo = int(ts[:n].searchsorted(cutoff, side="left"))
        if lo == 0:
            return 0
        self.generation += 1
        self.reshape_generation += 1
        self._metric.writes += 1
        self._metric.reshapes += 1
        self._cols = (ts[lo:n].copy(), vals[lo:n].copy(), n - lo)
        return lo


def _merge_last_wins(
    ts_parts: list[np.ndarray], val_parts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate, stable-sort by time, and keep the last value per
    timestamp (later parts / later rows overwrite earlier ones)."""
    merged_ts = np.concatenate(ts_parts)
    merged_vals = np.concatenate(val_parts)
    # Stable sort keeps insertion order for equal timestamps, so taking
    # the *last* element of each equal-run implements overwrite.
    order = np.argsort(merged_ts, kind="stable")
    merged_ts = merged_ts[order]
    merged_vals = merged_vals[order]
    keep = np.ones(merged_ts.shape[0], dtype=bool)
    keep[:-1] = merged_ts[1:] != merged_ts[:-1]
    return merged_ts[keep], merged_vals[keep]
