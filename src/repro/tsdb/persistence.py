"""Durability: WAL replay and snapshot/restore in the one segment format.

The cloud storage tier of the paper persists every measurement.  The
store writes and reads one format — the columnar segment format of
:mod:`~repro.tsdb.segments`: whole :class:`PointBatch` columns per
CRC-checked block, retention markers as typed control blocks, no
per-point Python objects on either side — durability at the same
granularity as ingest.  Markers replay at their position in the stream,
so a replayed log reproduces the post-retention state, not just the
union of every point ever written.

A source without the segment magic is not a segment and is refused,
strict or lenient: lenient recovery skips damaged *blocks* of a
segment, it never guesses at another format.  ``load`` replays into a
fresh :class:`TSDB` (or, via ``into=``, any
:class:`~repro.tsdb.interface.TimeSeriesStore`).
"""

from __future__ import annotations

import contextlib
import io
import os
from typing import TYPE_CHECKING

from .batch import BatchBuilder
from .database import TSDB
from .segments import DeleteBefore, DeleteSeriesBefore, SegmentWriter, iter_segments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .interface import TimeSeriesStore

__all__ = ["DeleteBefore", "DeleteSeriesBefore", "dumps", "load", "snapshot"]


def load(
    source,
    *,
    strict: bool = True,
    into: "TimeSeriesStore | None" = None,
) -> "TimeSeriesStore":
    """Replay a WAL or snapshot segment into a store.

    Replay is batch-at-a-time; a ``delete_before`` marker applies its
    deletion at its position in the stream, so replay interleaves batch
    blocks and retention exactly as the live process did — including
    the index pruning of series the deletion emptied.  ``into`` defaults
    to a fresh :class:`TSDB`; pass any store (e.g. a
    :class:`~repro.tsdb.tier.DurableStore`) to replay into it.
    """
    db: "TimeSeriesStore" = into if into is not None else TSDB()
    for item in iter_segments(source, strict=strict):
        if isinstance(item, DeleteBefore):
            db.delete_before(item.cutoff, exclude_suffix=item.exclude_suffix)
        elif isinstance(item, DeleteSeriesBefore):
            db.delete_series_before(item.key, item.cutoff)
        else:
            db.put_batch(item)
    return db


#: Snapshots flush a batch block at this many rows.
_SNAPSHOT_CHUNK = 65_536


def snapshot(db: "TimeSeriesStore", path: str | os.PathLike[str]) -> int:
    """Write a whole store as a sorted, deduplicated segment.

    Returns the number of points written.  Snapshots are normal WALs, so
    ``load`` restores them; they are smaller than the raw WAL because
    overwritten duplicates are gone.  Works on any store — the iteration
    order is canonical (metric, then key), so two stores with the same
    contents snapshot byte-identically.  Whole
    series columns stream into segment blocks.

    The segment is written to ``<path>.tmp`` and renamed over ``path``
    after its last block, so a snapshot that fails part-way leaves the
    previous file at ``path`` as it was (and no ``.tmp`` behind).
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with SegmentWriter(tmp, append=False) as writer:
            writer.comment("repro.tsdb snapshot")
            _snapshot_columns(db, writer)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return writer.written


def _snapshot_columns(db: "TimeSeriesStore", writer: SegmentWriter) -> None:
    """Stream every series' columns into chunked batch blocks, keeping
    the canonical (metric, then key) order of ``iter_series``."""
    builder = BatchBuilder()
    for key, sl in db.iter_series():
        if len(sl) == 0:
            continue
        builder.add_series(key.metric, sl.timestamps, sl.values, key.tag_dict())
        if len(builder) >= _SNAPSHOT_CHUNK:
            writer.write_batch(builder.build())
    if len(builder):
        writer.write_batch(builder.build())


def dumps(db: "TimeSeriesStore", *, format: str = "binary") -> bytes:
    """The store's snapshot segment as bytes (no header comment); round-
    trips through ``load(io.BytesIO(...))``."""
    # ``format`` is a vestige: the frozen benchmarks/e2e worker passes
    # format="binary"; no other value exists.
    if format != "binary":
        raise ValueError(f"unknown format {format!r}; segments are the only format")
    buf = io.BytesIO()
    writer = SegmentWriter(buf)
    _snapshot_columns(db, writer)
    writer.flush()
    return buf.getvalue()
