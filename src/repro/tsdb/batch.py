"""Columnar point batches: the unit of flow through the ingest pipeline.

A :class:`PointBatch` holds many data points as parallel numpy arrays
(timestamps, values) plus a dictionary-encoded series-key column, so the
whole sensor→TSDB hot path can move measurements in bulk instead of one
Python call per point.  :class:`BatchBuilder` is the accumulation side:
decoders and writers add points (scalar or columnar) and periodically
``build()`` a batch for :meth:`~repro.tsdb.database.TSDB.put_batch`.

Series keys are interned once per distinct (metric, tags) combination,
so the per-point cost of name validation and tag sorting is paid once
per series per batch, not once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import DataPoint, SeriesKey


def _as_timestamps(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"timestamps must be 1-D, got shape {arr.shape}")
    return arr


def _as_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {arr.shape}")
    return arr


def run_boundaries(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end offsets of contiguous equal-value runs in a column.

    The workhorse of the grouping passes in the columnar pipeline
    (downsample buckets, window closes, bulk loaders): one
    ``np.diff`` finds all run edges at once.
    """
    n = column.shape[0]
    if n == 0:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    cuts = np.nonzero(np.diff(column))[0] + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [n]])
    return starts, ends


@dataclass(frozen=True)
class PointBatch:
    """Many data points in columnar form.

    ``keys`` is the dictionary of distinct series keys; ``key_idx`` maps
    each row to its key.  Rows preserve write order: within one series,
    a later row overwrites an earlier row at the same timestamp
    (last-write-wins, matching the per-point API).
    """

    keys: tuple[SeriesKey, ...]
    key_idx: np.ndarray  # intp, parallel to timestamps
    timestamps: np.ndarray  # int64
    values: np.ndarray  # float64

    def __post_init__(self) -> None:
        object.__setattr__(self, "key_idx", np.asarray(self.key_idx, dtype=np.intp))
        object.__setattr__(self, "timestamps", _as_timestamps(self.timestamps))
        object.__setattr__(self, "values", _as_values(self.values))
        n = self.timestamps.shape[0]
        if self.values.shape[0] != n or self.key_idx.shape[0] != n:
            raise ValueError(
                "parallel columns disagree: "
                f"{self.key_idx.shape[0]} key rows, {n} timestamps, "
                f"{self.values.shape[0]} values"
            )
        if n and self.keys:
            lo, hi = self.key_idx.min(), self.key_idx.max()
            if lo < 0 or hi >= len(self.keys):
                raise ValueError(f"key_idx out of range [0, {len(self.keys)})")
        elif n:
            raise ValueError("non-empty batch with an empty key dictionary")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def is_empty(self) -> bool:
        return len(self) == 0

    @classmethod
    def empty(cls) -> "PointBatch":
        return cls((), np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0, np.float64))

    @classmethod
    def for_series(
        cls,
        metric: str,
        timestamps,
        values,
        tags: Mapping[str, str] | None = None,
    ) -> "PointBatch":
        """A batch where every point belongs to one series."""
        ts = _as_timestamps(timestamps)
        key = SeriesKey.make(metric, tags)
        return cls((key,), np.zeros(ts.shape[0], np.intp), ts, _as_values(values))

    @classmethod
    def from_points(cls, points: Iterable[DataPoint]) -> "PointBatch":
        builder = BatchBuilder()
        for p in points:
            builder.add_point(p)
        return builder.build()

    def by_series(self) -> Iterator[tuple[SeriesKey, np.ndarray, np.ndarray]]:
        """Yield ``(key, timestamps, values)`` per distinct series.

        Row order within each series is preserved (stable grouping), so
        last-write-wins semantics survive the regrouping.
        """
        if len(self) == 0:
            return
        if len(self.keys) == 1:
            yield self.keys[0], self.timestamps, self.values
            return
        idx, ts, vals = self.key_idx, self.timestamps, self.values
        steps = idx[1:] - idx[:-1]
        if steps.size and steps.min() < 0:
            order = np.argsort(idx, kind="stable")
            idx, ts, vals = idx[order], ts[order], vals[order]
            steps = idx[1:] - idx[:-1]
        # Rows already grouped in key order — a builder's flush, a
        # decoded block — skip the sort and are sliced in place.
        bounds = [0, *(np.flatnonzero(steps) + 1).tolist(), len(idx)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            yield self.keys[idx[s]], ts[s:e], vals[s:e]

    def rows(self, lo: int, hi: int) -> "PointBatch":
        """Row-range view ``[lo, hi)`` sharing the key dictionary.

        Row order (and therefore last-write-wins semantics within the
        kept range) is preserved; used by the regional fan-in layer to
        split oversized batches and trim drop-oldest overflow.
        """
        lo = max(0, int(lo))
        hi = min(len(self), int(hi))
        if lo >= hi:
            return PointBatch.empty()
        if lo == 0 and hi == len(self):
            return self
        return PointBatch(
            self.keys,
            self.key_idx[lo:hi],
            self.timestamps[lo:hi],
            self.values[lo:hi],
        )

    @classmethod
    def concat(cls, batches: Sequence["PointBatch"]) -> "PointBatch":
        """Concatenate batches, re-encoding the key dictionaries."""
        batches = [b for b in batches if len(b) > 0]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        keys: list[SeriesKey] = []
        index: dict[SeriesKey, int] = {}
        idx_parts = []
        for b in batches:
            remap = np.empty(len(b.keys), dtype=np.intp)
            for i, key in enumerate(b.keys):
                if key not in index:
                    index[key] = len(keys)
                    keys.append(key)
                remap[i] = index[key]
            idx_parts.append(remap[b.key_idx])
        return cls(
            tuple(keys),
            np.concatenate(idx_parts),
            np.concatenate([b.timestamps for b in batches]),
            np.concatenate([b.values for b in batches]),
        )


class BatchBuilder:
    """Accumulates points (scalar or columnar) into a :class:`PointBatch`.

    Scalar adds go to growable Python lists; columnar adds are kept as
    numpy chunks; ``build()`` concatenates everything once.

    A series is named once per builder, not once per batch: the
    ``(metric, tags) → SeriesKey`` interning outlives :meth:`clear`, so
    a long-lived writer validates and sorts each series' name the first
    time it sees it and never again.  The table is bounded by the
    distinct series the builder was ever handed — the same keys the
    store it feeds holds a column pair for.
    """

    __slots__ = (
        "_names", "_keys", "_index", "_pend_idx", "_pend_ts", "_pend_vals", "_chunks",
    )

    def __init__(self) -> None:
        self._names: dict[tuple, SeriesKey] = {}
        self._keys: list[SeriesKey] = []
        self._index: dict[SeriesKey, int] = {}
        self._pend_idx: list[int] = []
        self._pend_ts: list[int] = []
        self._pend_vals: list[float] = []
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self._pend_ts) + sum(c[1].shape[0] for c in self._chunks)

    def _intern(self, metric: str, tags: Mapping[str, str] | None) -> int:
        name = (metric, tuple(sorted((tags or {}).items())))
        key = self._names.get(name)
        if key is None:
            key = self._names[name] = SeriesKey.make(metric, tags)
        return self._intern_key(key)

    def _intern_key(self, key: SeriesKey) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self._keys)
            self._keys.append(key)
        return idx

    def add(
        self,
        metric: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> None:
        """Add one point; key validation is amortized per distinct series."""
        self._pend_idx.append(self._intern(metric, tags))
        self._pend_ts.append(int(timestamp))
        self._pend_vals.append(float(value))

    def add_point(self, point: DataPoint) -> None:
        self._pend_idx.append(self._intern_key(point.key))
        self._pend_ts.append(point.timestamp)
        self._pend_vals.append(point.value)

    def add_series(
        self,
        metric: str,
        timestamps,
        values,
        tags: Mapping[str, str] | None = None,
    ) -> None:
        """Add a whole column of points for one series."""
        ts = _as_timestamps(timestamps)
        vals = _as_values(values)
        if ts.shape[0] != vals.shape[0]:
            raise ValueError(
                f"timestamps/values disagree: {ts.shape[0]} vs {vals.shape[0]}"
            )
        if ts.shape[0] == 0:
            return
        self._flush_pending()
        idx = np.full(ts.shape[0], self._intern(metric, tags), dtype=np.intp)
        self._chunks.append((idx, ts, vals))

    def _flush_pending(self) -> None:
        if not self._pend_ts:
            return
        self._chunks.append(
            (
                np.asarray(self._pend_idx, dtype=np.intp),
                np.asarray(self._pend_ts, dtype=np.int64),
                np.asarray(self._pend_vals, dtype=np.float64),
            )
        )
        self._pend_idx = []
        self._pend_ts = []
        self._pend_vals = []

    def build(self, *, clear: bool = True) -> PointBatch:
        """Assemble the accumulated points; optionally :meth:`clear`."""
        self._flush_pending()
        if not self._chunks:
            return PointBatch.empty()
        batch = PointBatch(
            tuple(self._keys),
            np.concatenate([c[0] for c in self._chunks]),
            np.concatenate([c[1] for c in self._chunks]),
            np.concatenate([c[2] for c in self._chunks]),
        )
        if clear:
            self.clear()
        return batch

    def clear(self) -> None:
        """Drop the accumulated points and their key dictionary; the
        series names already interned stay."""
        self._keys = []
        self._index = {}
        self._pend_idx = []
        self._pend_ts = []
        self._pend_vals = []
        self._chunks = []
