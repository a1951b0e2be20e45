"""The journal: a write-through WAL with a compaction-safe pause protocol.

:class:`DurableStore` wraps any ``TimeSeriesStore`` and appends every
mutation to a binary segment WAL *before* committing it to the store —
durability precedes visibility, the same ordering the writer itself
promises (a flushed block precedes the in-memory write).  It is the
only journaling path: retention, tiering and the dataport writer mutate
the store they are handed, and are journaled because that store is (or
wraps) a ``DurableStore``.  The journal holds exactly what the write
protocol's three primitives produce — a batch block per ``put_batch``,
a marker block per ``delete_before`` / ``delete_series_before`` — in
the same frames :class:`~repro.replication.ReplicatedStore` logs (for a
batch, literally the same ``bytes`` objects: :meth:`DurableStore.put_batch`
frames once and carries the frames down the call).
Replaying the WAL rebuilds the store; compacting it (see
:mod:`.compact`) keeps that replay proportional to live data.  A file
without the segment magic is not a journal: pointing a ``DurableStore``
at one fails in ``SegmentWriter`` ("not a segment file; refusing to
append").

Compacting a *live* WAL needs the writer out of the way: the compactor
replaces the file under ``os.replace``, and an open append handle would
keep writing to the unlinked original.  :meth:`suspend_wal` is that
handshake — flush and close the writer, hand the path to the caller
(who compacts), and reopen in append mode on exit.  Writes arriving
during the window block on the same lock the tee holds, so no mutation
can slip between "closed" and "reopened" un-journaled.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..batch import PointBatch
from ..interface import StoreWrapper
from ..model import SeriesKey
from ..segments import SegmentWriter, carried_frames

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..interface import TimeSeriesStore

__all__ = ["DurableStore"]


class DurableStore(StoreWrapper):
    """Store wrapper journaling every mutation to a segment WAL.

    Reads and introspection delegate untouched; each of the three write
    primitives appends its block first, then commits, under one lock so
    the WAL's order equals the store's commit order.  Every other write
    (``put``, ``put_series``) is
    :class:`~repro.tsdb.interface.StoreApi`'s, in terms of
    :meth:`put_batch` — so it is journaled as a batch block too.
    """

    def __init__(
        self, store: "TimeSeriesStore", path: str | os.PathLike[str]
    ) -> None:
        super().__init__(store)
        self._path = Path(path)
        self._lock = threading.RLock()
        self._writer = SegmentWriter(self._path)

    @property
    def wal_path(self) -> Path:
        return self._path

    # -- journaled writes ------------------------------------------------
    def put_batch(self, batch: PointBatch) -> int:
        # Framed once, here: the block the journal writes is the very
        # object a ReplicatedStore below retains in its log.
        with self._lock, carried_frames(batch):
            self._writer.write_batch(batch)
            return self._store.put_batch(batch)

    def delete_before(
        self, cutoff: int, *, exclude_suffix: str | None = None
    ) -> int:
        with self._lock:
            self._writer.delete_before(cutoff, exclude_suffix=exclude_suffix)
            return self._store.delete_before(cutoff, exclude_suffix=exclude_suffix)

    def delete_series_before(self, key: SeriesKey, cutoff: int) -> int:
        with self._lock:
            self._writer.delete_series_before(key, cutoff)
            return self._store.delete_series_before(key, cutoff)

    # -- compaction handshake --------------------------------------------
    @contextmanager
    def suspend_wal(self) -> Iterator[Path]:
        """Close the writer, yield the WAL path, reopen on exit.

        The critical section for in-place WAL maintenance (compaction):
        concurrent writers block until the journal is back
        in append mode, so every mutation is journaled exactly once.
        """
        with self._lock:
            self._writer.close()
            try:
                yield self._path
            finally:
                self._writer = SegmentWriter(self._path)

    def close(self) -> None:
        with self._lock:
            self._writer.close()
