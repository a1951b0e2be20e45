"""The replication log: a sequence-numbered tee on the durability path.

Every committed write — ``put_batch``, ``delete_before``,
``delete_series_before`` — appends one *framed segment block* (the
exact bytes :mod:`repro.tsdb.segments` would put on disk) tagged with a
monotonically increasing sequence number.  The log is the single source
of truth for the shipper: records are retained until the follower
acknowledges them, so any disconnect can be healed by re-sending from
the follower's acked high-water mark.

Two pieces live here:

- :class:`ReplicationLog` — the thread-safe record buffer itself, with
  ``ack``/``pending_after`` for the shipper and a listener hook so a
  synchronous writer thread can wake the asyncio shipper loop;
- :class:`ReplicatedStore` — a store wrapper
  (:class:`~repro.tsdb.interface.StoreWrapper`) overriding the three
  write primitives: each commits to the wrapped store first, then
  appends the matching block, under one lock so log order always equals
  commit order.  It sits under the journal in the one supported stack,
  ``CachingStore(DurableStore(ReplicatedStore(store)))``, so WAL order ≡
  commit order ≡ log order.

Using framed blocks as the record payload means the wire format *is*
the durability format: the follower validates each record with the same
CRC the WAL reader uses, and a drained region spill segment
(``spill-<seq>.seg``) can be teed wholesale via :meth:`append_segment`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Mapping

from ..tsdb.batch import PointBatch
from ..tsdb.interface import StoreWrapper
from ..tsdb.model import SeriesKey
from ..tsdb.persistence import iter_batches
from ..tsdb.segments import (
    BLOCK_MARKER,
    DeleteBefore,
    DeleteSeriesBefore,
    carried_frames,
    encode_marker,
    frame_batch,
    frame_block,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

    from ..tsdb.interface import TimeSeriesStore


#: Cursor name used when ``ack`` is called without a follower — the
#: single-follower deployments' implicit subscriber.
DEFAULT_FOLLOWER = "default"


class ReplicationLog:
    """Thread-safe buffer of ``(seq, framed-block)`` records.

    Sequence numbers start at 1 and are contiguous; ``pending_after``
    serves the shipper's cursor reads in O(result) thanks to the
    contiguity (seq → list index is arithmetic, not a scan).

    Acknowledgment is **per follower**: each subscriber acks under its
    own cursor name, and records are dropped only below the *minimum*
    acked sequence across every known follower — so one log can feed N
    shippers (fan-out) without a fast follower's acks releasing records
    a slow one still needs.  ``ack`` without a follower name uses the
    :data:`DEFAULT_FOLLOWER` cursor, preserving the single-follower
    behaviour exactly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[tuple[int, bytes]] = []
        self._next = 1
        self._cursors: dict[str, int] = {}
        self._listeners: list[
            tuple["asyncio.AbstractEventLoop", Callable[[], None]]
        ] = []
        self.appended_records = 0
        self.appended_points = 0

    def _trimmed_locked(self) -> int:
        """Highest seq already dropped from the buffer (0 = none):
        records are contiguous, so it is everything before the first
        retained record — or everything, when the buffer drained."""
        return self._records[0][0] - 1 if self._records else self._next - 1

    # -- introspection ---------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Highest sequence number ever appended (0 when empty)."""
        return self._next - 1

    @property
    def acked_seq(self) -> int:
        """Highest sequence acknowledged by *every* known follower —
        the trim floor (0 until any follower acks)."""
        with self._lock:
            return min(self._cursors.values(), default=0)

    def acked_for(self, follower: str) -> int:
        """One follower's own acked high-water mark.

        An unknown follower reads as the trim floor at registration
        time semantics: 0 if nothing was ever trimmed, else whatever
        was already dropped (those records can never be shipped to it).
        """
        with self._lock:
            return self._cursors.get(follower, self._trimmed_locked())

    @property
    def follower_cursors(self) -> Mapping[str, int]:
        """Snapshot of every registered follower's acked cursor."""
        with self._lock:
            return dict(self._cursors)

    def register_follower(self, follower: str) -> None:
        """Make a follower's cursor count toward the trim floor *before*
        its first ack — otherwise records acked by faster followers in
        the meantime would be dropped out from under it.  Idempotent.
        New cursors start at the current trim floor: anything already
        dropped can never be shipped to this follower anyway.
        """
        with self._lock:
            self._cursors.setdefault(follower, self._trimmed_locked())

    def forget_follower(self, follower: str) -> None:
        """Drop a follower's cursor (it no longer holds records back)
        and trim to the remaining followers' floor."""
        with self._lock:
            if self._cursors.pop(follower, None) is not None:
                self._trim_locked()

    def __len__(self) -> int:
        """Records retained (appended but not yet acknowledged)."""
        return len(self._records)

    # -- append side (called from writer threads) ------------------------
    def append_block(self, block_type: int, payload: bytes) -> int:
        """Frame and append one block; returns its sequence number."""
        return self._append(frame_block(block_type, payload))

    def append_batch(self, batch: PointBatch) -> int:
        """Append a batch as the record(s) of its framed block(s) —
        :func:`~repro.tsdb.segments.frame_batch`, so one record unless
        the batch is too large for a follower to accept in one; returns
        the last sequence number.  Empty batches append nothing (returns
        the current ``last_seq``) so replay stays free of no-op records."""
        seq = self.last_seq
        for frame in frame_batch(batch):
            seq = self._append(frame)
        self.appended_points += len(batch)
        return seq

    def append_delete_before(
        self, cutoff: int, *, exclude_suffix: str | None = None
    ) -> int:
        return self.append_block(
            BLOCK_MARKER, encode_marker(DeleteBefore(int(cutoff), exclude_suffix))
        )

    def append_delete_series_before(self, key: SeriesKey, cutoff: int) -> int:
        return self.append_block(
            BLOCK_MARKER, encode_marker(DeleteSeriesBefore(key, int(cutoff)))
        )

    def append_segment(self, source, *, strict: bool = True) -> int:
        """Tee an existing segment file (e.g. a region lane's
        ``spill-<seq>.seg``) into the log, block by block; returns the
        number of records appended.  The format is auto-detected and
        blocks are re-framed from their decoded form, so a legacy text
        spill replays identically and a lenient read (``strict=False``)
        skips damaged blocks exactly as a local drain would.
        """
        appended = 0
        for item in iter_batches(source, strict=strict):
            if isinstance(item, PointBatch):
                self.append_batch(item)
            elif isinstance(item, DeleteSeriesBefore):
                self.append_delete_series_before(item.key, item.cutoff)
            else:
                self.append_delete_before(
                    item.cutoff, exclude_suffix=item.exclude_suffix
                )
            appended += 1
        return appended

    def _append(self, frame: bytes) -> int:
        with self._lock:
            seq = self._next
            self._next += 1
            self._records.append((seq, frame))
            self.appended_records += 1
            listeners = list(self._listeners)
        for loop, wake in listeners:
            loop.call_soon_threadsafe(wake)
        return seq

    # -- ship side (called from the shipper's event loop) ----------------
    def ack(self, seq: int, *, follower: str = DEFAULT_FOLLOWER) -> None:
        """Record ``follower``'s acknowledgment of every record up to
        ``seq``; records are dropped only once *every* known follower's
        cursor has passed them (trim to the minimum, not the maximum)."""
        with self._lock:
            if seq <= self._cursors.get(follower, -1):
                return
            self._cursors[follower] = max(seq, self._cursors.get(follower, 0))
            self._trim_locked()

    def _trim_locked(self) -> None:
        if not self._records:
            return
        floor = min(self._cursors.values(), default=0)
        drop = min(len(self._records), floor + 1 - self._records[0][0])
        if drop > 0:
            del self._records[:drop]

    def pending_after(
        self, seq: int, *, limit: int | None = None
    ) -> list[tuple[int, bytes]]:
        """Records with sequence number > ``seq``, oldest first."""
        with self._lock:
            if not self._records:
                return []
            first = self._records[0][0]
            start = max(0, seq + 1 - first)
            end = len(self._records) if limit is None else start + limit
            return self._records[start:end]

    # -- wakeups ---------------------------------------------------------
    def subscribe(
        self, loop: "asyncio.AbstractEventLoop", wake: Callable[[], None]
    ) -> None:
        """Register a callback to be run on ``loop`` (thread-safely)
        after every append — how the synchronous write path wakes the
        shipper."""
        with self._lock:
            self._listeners.append((loop, wake))

    def unsubscribe(
        self, loop: "asyncio.AbstractEventLoop", wake: Callable[[], None]
    ) -> None:
        with self._lock:
            try:
                self._listeners.remove((loop, wake))
            except ValueError:
                pass


class ReplicatedStore(StoreWrapper):
    """Store wrapper teeing every committed mutation into a
    :class:`ReplicationLog`.

    Reads and introspection delegate untouched to the wrapped store;
    each of the three write primitives commits there first and then
    appends its block, under one lock so the log's record order equals
    the store's commit order (the property the follower's sequential
    replay relies on).  Every other write is
    :class:`~repro.tsdb.interface.StoreApi`'s, in terms of
    :meth:`put_batch`.  Failed writes append nothing — an
    unacknowledged write is allowed to be lost, and logging it would
    instead *invent* it on the follower.

    Wrap the innermost real store (single or sharded).  Note the
    at-ingest cardinality guard-rail is the one write surface that can
    fail *mid-batch* (rows admitted before the rejected series stay
    written); run replicated primaries without ``max_tag_values`` or
    accept that a guard-rail rejection leaves those rows primary-only.
    """

    def __init__(
        self, store: "TimeSeriesStore", log: ReplicationLog | None = None
    ) -> None:
        super().__init__(store)
        self.log = log if log is not None else ReplicationLog()
        self._write_lock = threading.Lock()

    # -- teed writes -----------------------------------------------------
    def put_batch(self, batch: PointBatch) -> int:
        # Framed before the commit (a no-op under a journal, which
        # carries its frames down): a batch that cannot be framed is
        # refused whole, never committed here and missing on the follower.
        with self._write_lock, carried_frames(batch):
            n = self._store.put_batch(batch)
            self.log.append_batch(batch)
        return n

    def delete_before(
        self, cutoff: int, *, exclude_suffix: str | None = None
    ) -> int:
        with self._write_lock:
            n = self._store.delete_before(cutoff, exclude_suffix=exclude_suffix)
            self.log.append_delete_before(cutoff, exclude_suffix=exclude_suffix)
        return n

    def delete_series_before(self, key: SeriesKey, cutoff: int) -> int:
        with self._write_lock:
            n = self._store.delete_series_before(key, cutoff)
            self.log.append_delete_series_before(key, cutoff)
        return n


__all__ = ["DEFAULT_FOLLOWER", "ReplicatedStore", "ReplicationLog"]
