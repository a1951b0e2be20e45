"""Durability: WAL and snapshot/restore — one store format plus a text
import / export codec.

The cloud storage tier of the paper persists every measurement.  The
store writes **binary** — the columnar segment format of
:mod:`~repro.tsdb.segments`: whole :class:`PointBatch` columns per
CRC-checked block, markers as typed control blocks, no per-point Python
objects on either side — durability at the same granularity as ingest.

**Text** is the import / export codec (``convert_log``,
``dumps(format="text")``, ``snapshot(format="text")``) — a
human-readable, append-only *line protocol*::

    <metric> <timestamp> <value> [tagk=tagv ...]

plus ``#``-prefixed comments and ``!``-prefixed control markers.  The
control markers are retention, store-wide and per-series::

    !delete_before <cutoff> [exclude=<suffix>]
    !delete_series_before <cutoff> <metric{k=v,...}>

so a replayed log reproduces the post-retention state, not just the
union of every point ever written.

Reads auto-detect from the segment magic, so a restore never needs to be
told what it is replaying and pre-segment ``.log`` files keep
restoring.  Both formats restore byte-identical store state (the
equivalence suite in ``tests/test_tsdb_segments.py`` pins this),
including interleaved retention markers and lenient truncated-tail
recovery.  ``load`` replays
into a fresh :class:`TSDB` (or, via ``into=``, any
:class:`~repro.tsdb.interface.TimeSeriesStore`, e.g. one shard of a
:class:`~repro.tsdb.sharded.ShardedTSDB`).
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from .batch import BatchBuilder, PointBatch
from .database import TSDB
from .model import DataPoint
from .segments import (
    DeleteBefore,
    DeleteSeriesBefore,
    SegmentCorruption,
    SegmentWriter,
    SEGMENT_MAGIC,
    iter_segments,
    parse_series_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .interface import TimeSeriesStore

__all__ = [
    "DeleteBefore",
    "DeleteSeriesBefore",
    "LogCorruption",
    "LogWriter",
    "SegmentCorruption",
    "SegmentWriter",
    "convert_log",
    "detect_format",
    "dumps",
    "format_delete_before",
    "format_delete_series_before",
    "format_point",
    "iter_batches",
    "iter_entries",
    "iter_log",
    "iter_segments",
    "load",
    "parse_entry",
    "parse_line",
    "snapshot",
]

#: Control lines start with this character (vs. ``#`` for comments).
MARKER_PREFIX = "!"
_MARKER_DELETE_BEFORE = "!delete_before"
_MARKER_DELETE_SERIES_BEFORE = "!delete_series_before"


class LogCorruption(ValueError):
    """A log line failed to parse."""

    def __init__(self, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


def format_point(point: DataPoint) -> str:
    """Render one point as a log line."""
    tags = " ".join(f"{k}={v}" for k, v in point.key.tags)
    base = f"{point.key.metric} {point.timestamp} {point.value!r}"
    return f"{base} {tags}" if tags else base


def format_delete_before(marker: DeleteBefore) -> str:
    """Render a retention marker as a control line."""
    line = f"{_MARKER_DELETE_BEFORE} {marker.cutoff}"
    if marker.exclude_suffix is not None:
        line += f" exclude={marker.exclude_suffix}"
    return line


def format_delete_series_before(marker: DeleteSeriesBefore) -> str:
    """Render a scoped-retention marker as a control line.

    The canonical key form contains no whitespace, so the line splits
    back unambiguously.
    """
    return f"{_MARKER_DELETE_SERIES_BEFORE} {marker.cutoff} {marker.key}"


def _parse_marker(
    stripped: str, line: str, lineno: int
) -> DeleteBefore | DeleteSeriesBefore:
    parts = stripped.split()
    if parts[0] == _MARKER_DELETE_SERIES_BEFORE:
        if len(parts) != 3:
            raise LogCorruption(
                lineno, line, "expected '!delete_series_before <cutoff> <key>'"
            )
        try:
            cutoff = int(parts[1])
        except ValueError:
            raise LogCorruption(lineno, line, f"bad cutoff {parts[1]!r}") from None
        try:
            key = parse_series_key(parts[2])
        except ValueError:
            raise LogCorruption(
                lineno, line, f"bad series key {parts[2]!r}"
            ) from None
        return DeleteSeriesBefore(key, cutoff)
    if parts[0] != _MARKER_DELETE_BEFORE:
        raise LogCorruption(lineno, line, f"unknown marker {parts[0]!r}")
    if len(parts) not in (2, 3):
        raise LogCorruption(
            lineno, line, "expected '!delete_before <cutoff> [exclude=<suffix>]'"
        )
    try:
        cutoff = int(parts[1])
    except ValueError:
        raise LogCorruption(lineno, line, f"bad cutoff {parts[1]!r}") from None
    exclude: str | None = None
    if len(parts) == 3:
        field, _, value = parts[2].partition("=")
        if field != "exclude" or not value:
            raise LogCorruption(lineno, line, f"bad marker option {parts[2]!r}")
        exclude = value
    return DeleteBefore(cutoff, exclude)


def parse_entry(
    line: str, lineno: int = 0
) -> DataPoint | DeleteBefore | DeleteSeriesBefore | None:
    """Parse one log line into a point or a control marker.

    Returns None for blanks and comments; raises :class:`LogCorruption`
    for anything else unparseable.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if stripped.startswith(MARKER_PREFIX):
        return _parse_marker(stripped, line, lineno)
    return parse_line(line, lineno)


def parse_line(line: str, lineno: int = 0) -> DataPoint | None:
    """Parse one data-point log line; returns None for blanks and comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) < 3:
        raise LogCorruption(lineno, line, "expected 'metric ts value [tags...]'")
    metric, ts_s, val_s, *tag_parts = parts
    try:
        ts = int(ts_s)
    except ValueError:
        raise LogCorruption(lineno, line, f"bad timestamp {ts_s!r}") from None
    try:
        value = float(val_s)
    except ValueError:
        raise LogCorruption(lineno, line, f"bad value {val_s!r}") from None
    tags: dict[str, str] = {}
    for part in tag_parts:
        if "=" not in part:
            raise LogCorruption(lineno, line, f"bad tag {part!r}")
        k, _, v = part.partition("=")
        tags[k] = v
    try:
        return DataPoint.make(metric, ts, value, tags)
    except ValueError as exc:
        raise LogCorruption(lineno, line, str(exc)) from None


class LogWriter:
    """Append-only line-protocol writer (the text export codec; a line
    is a point, so the surface is per-point); flushes per batch."""

    def __init__(
        self, path: str | os.PathLike[str] | TextIO, *, append: bool = True
    ) -> None:
        if isinstance(path, (str, os.PathLike)):
            self._path = Path(path)
            self._fh: TextIO = open(self._path, "a" if append else "w", encoding="utf-8")
            self._owns = True
        else:
            self._path = None
            self._fh = path
            self._owns = False
        self._written = 0

    @property
    def written(self) -> int:
        return self._written

    def write(self, point: DataPoint) -> None:
        self._fh.write(format_point(point) + "\n")
        self._written += 1

    def write_many(self, points: Iterable[DataPoint]) -> int:
        """Append many points: format all lines, then one ``writelines``.

        Building the whole line list first keeps the I/O layer out of
        the per-point loop — one buffered write per call, not per point.
        """
        lines = [format_point(p) + "\n" for p in points]
        self._fh.writelines(lines)
        self._written += len(lines)
        self.flush()
        return len(lines)

    def write_batch(self, batch: PointBatch) -> int:
        """Append a columnar batch (row order, and thus last-write-wins
        semantics, preserved).  Same signature as
        :meth:`SegmentWriter.write_batch`, so ``convert_log`` drives either."""
        return self.write_many(batch.iter_points())

    def delete_before(
        self, cutoff: int, *, exclude_suffix: str | None = None
    ) -> None:
        """Append a retention marker so replay reproduces the deletion.

        Markers don't count toward :attr:`written` (that tracks points).
        Flushes immediately: the in-memory deletion is destructive, so a
        buffered marker lost in a crash would resurrect the deleted
        points on replay.
        """
        self._fh.write(
            format_delete_before(DeleteBefore(int(cutoff), exclude_suffix)) + "\n"
        )
        self.flush()

    def delete_series_before(self, key, cutoff: int) -> None:
        """Append a scoped-retention marker (flushed immediately, like
        :meth:`delete_before` — same resurrect-on-replay hazard)."""
        self._fh.write(
            format_delete_series_before(DeleteSeriesBefore(key, int(cutoff))) + "\n"
        )
        self.flush()

    def comment(self, text: str) -> None:
        for line in text.splitlines() or [""]:
            self._fh.write(f"# {line}\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_entries(
    source: str | os.PathLike[str] | TextIO, *, strict: bool = True
) -> Iterator[DataPoint | DeleteBefore | DeleteSeriesBefore]:
    """Yield points and control markers from a log, in file order.

    With ``strict=False`` corrupt lines are skipped instead of raising —
    the recovery path after an unclean shutdown that truncated the tail.
    Input decodes with ``errors="replace"`` (binary-mode handles are
    wrapped the same way) so binary garbage — e.g. a segment file whose
    magic was damaged, mis-detected as text — surfaces as
    :class:`LogCorruption` per line — loud under ``strict``, skippable
    under recovery — never as a raw ``UnicodeDecodeError``/``TypeError``.
    """
    wrapper: io.TextIOWrapper | None = None
    if isinstance(source, (str, os.PathLike)):
        fh: TextIO = open(source, "r", encoding="utf-8", errors="replace")
        owns = True
    else:
        fh = source
        owns = False
        if isinstance(fh.read(0), bytes):  # binary-mode handle
            wrapper = io.TextIOWrapper(fh, encoding="utf-8", errors="replace")
            fh = wrapper
    try:
        for lineno, line in enumerate(fh, start=1):
            try:
                entry = parse_entry(line, lineno)
            except LogCorruption:
                if strict:
                    raise
                continue
            if entry is not None:
                yield entry
    finally:
        if owns:
            fh.close()
        elif wrapper is not None:
            wrapper.detach()  # hand the caller's handle back intact


def iter_log(
    source: str | os.PathLike[str] | TextIO, *, strict: bool = True
) -> Iterator[DataPoint]:
    """Yield only the data points of a log (control markers skipped)."""
    for entry in iter_entries(source, strict=strict):
        if isinstance(entry, DataPoint):
            yield entry


#: ``load`` flushes its batch builder at this size (bounded memory).
_LOAD_CHUNK = 65_536


def detect_format(source) -> str:
    """``"binary"`` when the source starts with the segment magic, else
    ``"text"``.  Paths and seekable binary handles are probed; text
    handles are text by construction."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            head = fh.read(len(SEGMENT_MAGIC))
        return "binary" if head == SEGMENT_MAGIC else "text"
    if isinstance(source, io.TextIOBase):
        return "text"
    if hasattr(source, "seekable") and source.seekable():
        pos = source.tell()
        head = source.read(len(SEGMENT_MAGIC))
        source.seek(pos)
        return "binary" if head == SEGMENT_MAGIC else "text"
    raise ValueError(
        "cannot auto-detect the format of a non-seekable handle; "
        'pass format="text" or format="binary"'
    )


def _coerce_format(source, format: str) -> str:
    if format == "auto":
        return detect_format(source)
    if format not in ("text", "binary"):
        raise ValueError(f'unknown format {format!r}; pick "text", "binary" or "auto"')
    return format


def _write_format(format: str) -> str:
    """Validate a format for a *write* path, where auto-detection has
    nothing to detect."""
    if format not in ("text", "binary"):
        raise ValueError(
            f'unknown format {format!r}; pick "text" or "binary" '
            '("auto" is only valid when reading)'
        )
    return format


def iter_batches(
    source,
    *,
    strict: bool = True,
    format: str = "auto",
) -> Iterator[PointBatch | DeleteBefore | DeleteSeriesBefore]:
    """Yield a log's contents as columnar batches plus control markers.

    The format-independent replay stream: binary segments yield their
    blocks as decoded; text logs accumulate points into
    :class:`BatchBuilder` chunks (flushed at marker boundaries so the
    interleaving of data and retention is preserved exactly).
    """
    fmt = _coerce_format(source, format)
    if fmt == "binary":
        yield from iter_segments(source, strict=strict)
        return
    builder = BatchBuilder()
    for entry in iter_entries(source, strict=strict):
        if isinstance(entry, (DeleteBefore, DeleteSeriesBefore)):
            if len(builder):
                yield builder.build()
            yield entry
        else:
            builder.add_point(entry)
            if len(builder) >= _LOAD_CHUNK:
                yield builder.build()
    if len(builder):
        yield builder.build()


def load(
    source,
    *,
    strict: bool = True,
    into: "TimeSeriesStore | None" = None,
    format: str = "auto",
) -> "TimeSeriesStore":
    """Replay a WAL or snapshot — either format — into a store.

    The format is auto-detected from the segment magic unless forced.
    Replay is batch-at-a-time in both formats; a ``delete_before``
    marker applies its deletion at its position in the stream, so replay
    interleaves batch blocks and retention exactly as the live process
    did — including the index pruning of series the deletion emptied.
    ``into`` defaults to a fresh single-store :class:`TSDB`; pass any
    store (e.g. a :class:`~repro.tsdb.sharded.ShardedTSDB`) to replay
    into it.
    """
    db: "TimeSeriesStore" = into if into is not None else TSDB()
    for item in iter_batches(source, strict=strict, format=format):
        if isinstance(item, DeleteBefore):
            db.delete_before(item.cutoff, exclude_suffix=item.exclude_suffix)
        elif isinstance(item, DeleteSeriesBefore):
            db.delete_series_before(item.key, item.cutoff)
        else:
            db.put_batch(item)
    return db


#: Binary snapshots flush a batch block at this many rows.
_SNAPSHOT_CHUNK = 65_536


def snapshot(
    db: "TimeSeriesStore", path: str | os.PathLike[str], *, format: str = "binary"
) -> int:
    """Write a whole store as a sorted, deduplicated segment (or, with
    ``format="text"``, the line-protocol export of the same stream).

    Returns the number of points written.  Snapshots are normal WALs, so
    ``load`` restores them; they are smaller than the raw WAL because
    overwritten duplicates are gone.  Works on any store — the iteration
    order is canonical (metric, then key), so a sharded store snapshots
    byte-identically to a single store with the same contents.  Whole
    series columns stream into segment blocks; only the text export
    creates per-point objects.
    """
    if _write_format(format) == "binary":
        with SegmentWriter(path, append=False) as writer:
            writer.comment("repro.tsdb snapshot")
            _snapshot_columns(db, writer)
            return writer.written
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        writer = LogWriter(fh)
        writer.comment("repro.tsdb snapshot")
        for point in db.iter_points():
            writer.write(point)
            n += 1
        writer.flush()
    return n


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


def dumps(db: "TimeSeriesStore", *, format: str = "text") -> str | bytes:
    """Snapshot to a string (text) or bytes (binary); round-trips
    through ``load`` either way.

    The default stays ``"text"`` on purpose, unlike :func:`snapshot`:
    this is the human-readable export and returns ``str``; callers that
    mean the store's bytes pass ``format="binary"``."""
    if _write_format(format) == "binary":
        buf = io.BytesIO()
        writer = SegmentWriter(buf)
        _snapshot_columns(db, writer)
        writer.flush()
        return buf.getvalue()
    sbuf = io.StringIO()
    text_writer = LogWriter(sbuf)
    for point in db.iter_points():
        text_writer.write(point)
    return sbuf.getvalue()


def convert_log(
    src,
    dst: str | os.PathLike[str],
    *,
    format: str = "binary",
    strict: bool = True,
) -> tuple[int, int]:
    """Migrate a WAL/snapshot between formats; returns (points, markers).

    The source format is auto-detected, so this converts text→binary
    (the upgrade path for pre-segment logs), binary→text (debugging:
    segments become human-readable), or same→same (which compacts a
    lenient read of a damaged file into a clean one).  The destination
    is truncated, not appended to.
    """
    fmt = _write_format(format)
    if isinstance(src, (str, os.PathLike)):
        if Path(src).resolve() == Path(dst).resolve():
            raise ValueError(
                f"convert_log source and destination are the same file ({src}); "
                "truncating the destination would destroy the source"
            )
        detect_format(src)  # probe src first: a missing/unreadable source
        # must not leave a truncated stub behind at dst.
    points = markers = 0
    writer: SegmentWriter | LogWriter = (
        SegmentWriter(dst, append=False)
        if fmt == "binary"
        else LogWriter(dst, append=False)
    )
    with writer:
        for item in iter_batches(src, strict=strict):
            if isinstance(item, DeleteBefore):
                writer.delete_before(item.cutoff, exclude_suffix=item.exclude_suffix)
                markers += 1
            elif isinstance(item, DeleteSeriesBefore):
                writer.delete_series_before(item.key, item.cutoff)
                markers += 1
            else:
                points += writer.write_batch(item)
    return points, markers
