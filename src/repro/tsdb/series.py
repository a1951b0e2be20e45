"""In-memory storage of a single time series.

Points arrive mostly in time order (live sensor feeds) but the store must
also absorb out-of-order and duplicate timestamps (LoRaWAN retransmits,
backfilled historic imports).  We keep two numpy-backed growable arrays
plus a small unsorted tail; scans merge-sort the tail in on demand and
deduplicate by keeping the *latest written* value per timestamp, matching
OpenTSDB's overwrite semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        a = 0 if start is None else int(np.searchsorted(ts, start, side="left"))
        b = ts.shape[0] if end is None else int(np.searchsorted(ts, end, side="right"))
        if a == 0 and b == ts.shape[0]:
            return self
        return SeriesSlice(ts[a:b], self.values[a:b])


class SeriesStore:
    """Append-optimized storage for one series.

    **Nothing below ``_n`` is ever written in place.**  The sorted
    region ``_ts[:_n]`` / ``_vals[:_n]`` only grows: an in-order append
    or bulk extend writes at ``>= _n``, and everything that would change
    what is already there — growth past capacity, merging the unsorted
    tail or an out-of-order batch, a retention delete — builds new
    arrays and *replaces* the columns.  A :meth:`scan` is therefore a
    snapshot without a copy: a read-only view of the columns as they
    were, equal for as long as it is held to the copy it could have
    been (and keeping a superseded buffer alive for exactly that long).

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
    """

    __slots__ = (
        "_ts", "_vals", "_n", "_tail_ts", "_tail_vals", "_dirty",
        "generation", "reshape_generation",
    )

    _INITIAL = 256

    def __init__(self) -> None:
        self._ts = np.empty(self._INITIAL, dtype=np.int64)
        self._vals = np.empty(self._INITIAL, dtype=np.float64)
        self._n = 0
        self._tail_ts: list[int] = []
        self._tail_vals: list[float] = []
        self._dirty = False
        self.generation = 0
        self.reshape_generation = 0

    def __len__(self) -> int:
        self._compact()
        return self._n

    @property
    def approximate_size(self) -> int:
        """Point count without forcing a compaction."""
        return self._n + len(self._tail_ts)

    def append(self, timestamp: int, value: float) -> None:
        """Add a point; out-of-order and duplicate timestamps are allowed."""
        timestamp = int(timestamp)
        self.generation += 1
        if self._n > 0 and not self._tail_ts and timestamp > int(self._ts[self._n - 1]):
            self._append_sorted(timestamp, float(value))
            return
        if self._n == 0 and not self._tail_ts:
            self._append_sorted(timestamp, float(value))
            return
        # Out-of-order or duplicate timestamp: already-seen data may be
        # overwritten once the tail merges in.
        self.reshape_generation += 1
        self._tail_ts.append(timestamp)
        self._tail_vals.append(float(value))
        self._dirty = True
        if len(self._tail_ts) >= 1024:
            self._compact()

    def _append_sorted(self, timestamp: int, value: float) -> None:
        if self._n == self._ts.shape[0]:
            self._grow()
        self._ts[self._n] = timestamp
        self._vals[self._n] = value
        self._n += 1

    def _grow(self, minimum: int | None = None) -> None:
        cap = max(self._INITIAL, self._ts.shape[0] * 2)
        if minimum is not None:
            cap = max(cap, minimum)
        self._ts = np.resize(self._ts, cap)
        self._vals = np.resize(self._vals, cap)

    def extend_batch(self, timestamps, values) -> int:
        """Bulk-append a column of points with one sorted merge.

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
        in_order = n == 1 or bool(np.all(ts[1:] > ts[:-1]))
        if (
            in_order
            and not self._tail_ts
            and (self._n == 0 or int(ts[0]) > int(self._ts[self._n - 1]))
        ):
            # Fast path: the batch extends the sorted region directly.
            need = self._n + n
            if need > self._ts.shape[0]:
                self._grow(minimum=need)
            self._ts[self._n : need] = ts
            self._vals[self._n : need] = vals
            self._n = need
            return n
        # The merge may rewrite already-seen history (conservatively so:
        # an internally unordered batch that still lands entirely past
        # the sorted region also takes this path).
        self.reshape_generation += 1
        # Slow path: one stable merge of sorted region + tail + batch.
        merged_ts, merged_vals = _merge_last_wins(
            [self._ts[: self._n], np.asarray(self._tail_ts, dtype=np.int64), ts],
            [self._vals[: self._n], np.asarray(self._tail_vals, dtype=np.float64), vals],
        )
        self._ts = merged_ts
        self._vals = merged_vals
        self._n = int(merged_ts.shape[0])
        self._tail_ts.clear()
        self._tail_vals.clear()
        self._dirty = False
        return n

    def _compact(self) -> None:
        """Merge the unsorted tail into the sorted arrays, deduplicating.

        On duplicate timestamps the most recently written value wins
        (OpenTSDB overwrite semantics); within the tail, later appends win.
        """
        if not self._dirty:
            return
        merged_ts, merged_vals = _merge_last_wins(
            [self._ts[: self._n], np.asarray(self._tail_ts, dtype=np.int64)],
            [self._vals[: self._n], np.asarray(self._tail_vals, dtype=np.float64)],
        )
        self._ts = merged_ts
        self._vals = merged_vals
        self._n = int(merged_ts.shape[0])
        self._tail_ts.clear()
        self._tail_vals.clear()
        self._dirty = False

    def scan(self, start: int | None = None, end: int | None = None) -> SeriesSlice:
        """Sorted slice of points with ``start <= t <= end`` (inclusive):
        a read-only snapshot of the columns (see the class docstring),
        not a copy — whoever keeps points past the request copies them."""
        self._compact()
        ts = self._ts[: self._n]
        lo = 0 if start is None else int(np.searchsorted(ts, start, side="left"))
        hi = self._n if end is None else int(np.searchsorted(ts, end, side="right"))
        ts, vals = ts[lo:hi], self._vals[lo:hi]
        ts.setflags(write=False)
        vals.setflags(write=False)
        return SeriesSlice(ts, vals)

    def latest(self) -> tuple[int, float] | None:
        """Most recent ``(timestamp, value)`` or None when empty."""
        self._compact()
        if self._n == 0:
            return None
        return int(self._ts[self._n - 1]), float(self._vals[self._n - 1])

    def first_timestamp(self) -> int | None:
        self._compact()
        return int(self._ts[0]) if self._n else None

    def delete_before(self, cutoff: int) -> int:
        """Drop points strictly older than ``cutoff``; returns count dropped."""
        self._compact()
        ts = self._ts[: self._n]
        lo = int(np.searchsorted(ts, cutoff, side="left"))
        if lo == 0:
            return 0
        self.generation += 1
        self.reshape_generation += 1
        self._ts = self._ts[lo : self._n].copy()
        self._vals = self._vals[lo : self._n].copy()
        self._n -= lo
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


def merge_slices(slices: list[SeriesSlice]) -> SeriesSlice:
    """Union several sorted slices into one sorted slice.

    Duplicate timestamps across slices keep the value from the later slice
    in the argument list.  Used when grouping series for aggregation.
    """
    if not slices:
        return SeriesSlice(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    if len(slices) == 1:
        return slices[0]
    ts = np.concatenate([s.timestamps for s in slices])
    vals = np.concatenate([s.values for s in slices])
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    vals = vals[order]
    keep = np.ones(ts.shape[0], dtype=bool)
    keep[:-1] = ts[1:] != ts[:-1]
    return SeriesSlice(ts[keep], vals[keep])
