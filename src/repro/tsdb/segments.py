"""Binary columnar segment format: durability at batch granularity.

The line protocol in :mod:`~repro.tsdb.persistence` formats and parses
every point through Python string machinery — at columnar ingest rates
(~10M pts/s) the log costs more than the ingest itself.  This module
persists data the way the hot path moves it: whole
:class:`~repro.tsdb.batch.PointBatch` columns, encoded and decoded with
``ndarray.tobytes``/``np.frombuffer`` and no per-point Python objects.

Segment file layout (all integers little-endian)::

    file   = magic · block*
    magic  = b"RSEG\\x00\\x01\\r\\n"          (8 bytes; last two catch
                                               text-mode newline mangling)
    block  = u8 type · u32 payload_len · u32 crc32(payload) · payload

Block types:

``0x01`` **batch** — one :class:`PointBatch` as columns::

    u32 n_keys
    n_keys × (u16 len · utf-8 canonical key "metric{k=v,...}")
    u32 n_rows
    u32[n_rows] key_idx          (dictionary-encoded series keys)
    i64[n_rows] ts deltas        (delta[0] = ts[0]; decode = cumsum)
    f64[n_rows] values           (raw IEEE-754 bits)

``0x02`` **marker** — a typed control block, the binary twin of the
text protocol's ``!delete_before`` / ``!delete_series_before`` lines::

    u8 kind (1 = delete_before, 2 = delete_series_before) · i64 cutoff
    u8 has_exclude · u16 len · utf-8 tail
    (kind 1: tail = exclude suffix; kind 2: tail = canonical series key)

``0x03`` **comment** — utf-8 text; readers skip it.

Every block carries a CRC-32 covering its type, length, and payload, so
corruption never goes undetected.  ``strict=False`` recovery is
prefix-preserving: damaged *payload* bytes lose exactly that block (the
intact length prefix lets the reader skip it); a damaged *length* field
is indistinguishable from a torn tail, so recovery keeps every block up
to the damage and stops — the same contract as the text protocol's
lenient mode, at block rather than line granularity.  Row order inside
a batch block is preserved exactly, so replay keeps last-write-wins
semantics and markers interleave with batch blocks at their original
positions.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .batch import PointBatch
from .model import SeriesKey

#: First bytes of every segment file (includes the format version).
SEGMENT_MAGIC = b"RSEG\x00\x01\r\n"

_HEADER = struct.Struct("<BII")  # block type, payload length, crc32
_HEADER_PREFIX = struct.Struct("<BI")  # the crc-covered header fields
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_MARKER_HEAD = struct.Struct("<bqB")  # kind, cutoff, has_exclude
_ROW_BYTES = 20  # one batch row: u4 key_idx + i8 ts delta + f8 value

#: Block type tags — public so frame-level consumers (the replication
#: log tees pre-framed blocks; followers decode them) can speak the
#: format without re-deriving constants.
BLOCK_BATCH = _BLOCK_BATCH = 0x01
BLOCK_MARKER = _BLOCK_MARKER = 0x02
BLOCK_COMMENT = _BLOCK_COMMENT = 0x03

_KIND_DELETE_BEFORE = 1
_KIND_DELETE_SERIES_BEFORE = 2

#: Largest replication record (u64 sequence number + framed block) a
#: follower accepts — a corrupted length prefix must not trigger a
#: multi-GB read.  It bounds what a writer may frame as well:
#: :func:`frame_batch` splits a batch into blocks that each fit one
#: record, so whatever a journal holds a follower can be shipped.
MAX_RECORD_BYTES = 256 << 20


@dataclass(frozen=True, slots=True)
class DeleteBefore:
    """Replayable retention marker: drop points older than ``cutoff``.

    Shared by both durability formats — the text protocol renders it as
    a ``!delete_before`` line, the segment format as a marker block.
    """

    cutoff: int
    exclude_suffix: str | None = None


@dataclass(frozen=True, slots=True)
class DeleteSeriesBefore:
    """Replayable scoped-retention marker: drop one series' points older
    than ``cutoff``.

    The durable twin of ``TimeSeriesStore.delete_series_before`` —
    per-city retention policies and the replication stream both need
    scoped deletions to survive replay, not just the store-wide
    :class:`DeleteBefore`.  Text form ``!delete_series_before``, binary
    form marker kind 2.
    """

    key: SeriesKey
    cutoff: int


class SegmentCorruption(ValueError):
    """A segment block failed its structural or checksum validation."""

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(f"segment offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


def parse_series_key(text: str) -> SeriesKey:
    """Parse the canonical ``str(SeriesKey)`` form back into a key.

    Unambiguous because the identifier charset forbids ``{``, ``}``,
    ``,`` and ``=``; validation happens in :meth:`SeriesKey.make`, so a
    corrupt key string raises rather than poisoning the store.
    """
    if text.endswith("}"):
        metric, brace, inner = text[:-1].partition("{")
        if not brace:
            raise ValueError(f"malformed series key {text!r}")
        tags: dict[str, str] = {}
        if inner:
            for part in inner.split(","):
                k, eq, v = part.partition("=")
                if not eq:
                    raise ValueError(f"malformed tag pair {part!r} in {text!r}")
                tags[k] = v
        return SeriesKey.make(metric, tags)
    return SeriesKey.make(text)


# ---------------------------------------------------------------------------
# Codec: payload <-> typed value (no framing, no I/O)
# ---------------------------------------------------------------------------
def encode_batch(batch: PointBatch) -> bytes:
    """Encode one batch as a block payload (whole-column ``tobytes``)."""
    parts: list[bytes] = [_U32.pack(len(batch.keys))]
    for key in batch.keys:
        raw = str(key).encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"series key too long to encode: {len(raw)} bytes")
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
    n = len(batch)
    parts.append(_U32.pack(n))
    parts.append(np.ascontiguousarray(batch.key_idx, dtype="<u4").tobytes())
    ts = np.ascontiguousarray(batch.timestamps, dtype="<i8")
    deltas = np.empty_like(ts)
    if n:
        deltas[0] = ts[0]
        np.subtract(ts[1:], ts[:-1], out=deltas[1:])
    parts.append(deltas.tobytes())
    parts.append(np.ascontiguousarray(batch.values, dtype="<f8").tobytes())
    return b"".join(parts)


@lru_cache(maxsize=1 << 16)
def _key_from_utf8(raw: bytes) -> SeriesKey:
    """The series key a block's dictionary entry names, interned.

    A pure function of CRC-validated bytes, so a follower applying one
    flush after another and ``load()`` of a WAL fragmented into
    thousands of 8-point blocks parse and validate each distinct key
    once, not once per block — and get the same key object back, with
    its canonical text already formatted.  Bounded, not configurable:
    65 536 entries of a few hundred bytes each is at most a few tens of
    MB, a fraction of the 4 KB of columns the store itself allocates
    per series; past the bound the least recently decoded keys are
    simply parsed again.
    """
    return parse_series_key(raw.decode("utf-8"))


def decode_batch(payload: bytes) -> PointBatch:
    """Decode a batch payload; columns come straight off ``frombuffer``."""
    off = 0
    try:
        (n_keys,) = _U32.unpack_from(payload, off)
        off += 4
        keys = []
        for _ in range(n_keys):
            (klen,) = _U16.unpack_from(payload, off)
            off += 2
            keys.append(_key_from_utf8(payload[off : off + klen]))
            off += klen
        (n_rows,) = _U32.unpack_from(payload, off)
        off += 4
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise ValueError(f"bad batch block: {exc}") from None
    if len(payload) - off != n_rows * _ROW_BYTES:
        raise ValueError(
            f"bad batch block: {n_rows} rows need {n_rows * _ROW_BYTES} column bytes, "
            f"found {len(payload) - off}"
        )
    key_idx = np.frombuffer(payload, "<u4", n_rows, off).astype(np.intp)
    off += 4 * n_rows
    deltas = np.frombuffer(payload, "<i8", n_rows, off)
    off += 8 * n_rows
    values = np.frombuffer(payload, "<f8", n_rows, off)
    timestamps = np.cumsum(deltas, dtype=np.int64)
    return PointBatch(tuple(keys), key_idx, timestamps, values)


def encode_marker(marker: DeleteBefore | DeleteSeriesBefore) -> bytes:
    if isinstance(marker, DeleteSeriesBefore):
        tail = str(marker.key).encode("utf-8")
        head = _MARKER_HEAD.pack(_KIND_DELETE_SERIES_BEFORE, int(marker.cutoff), 0)
        return head + _U16.pack(len(tail)) + tail
    suffix = (marker.exclude_suffix or "").encode("utf-8")
    head = _MARKER_HEAD.pack(
        _KIND_DELETE_BEFORE,
        int(marker.cutoff),
        1 if marker.exclude_suffix is not None else 0,
    )
    return head + _U16.pack(len(suffix)) + suffix


def decode_marker(payload: bytes) -> DeleteBefore | DeleteSeriesBefore:
    try:
        kind, cutoff, has_exclude = _MARKER_HEAD.unpack_from(payload, 0)
        (slen,) = _U16.unpack_from(payload, _MARKER_HEAD.size)
        raw = payload[_MARKER_HEAD.size + 2 : _MARKER_HEAD.size + 2 + slen]
        tail = raw.decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise ValueError(f"bad marker block: {exc}") from None
    if len(raw) != slen:
        raise ValueError("bad marker block: truncated marker tail")
    if kind == _KIND_DELETE_BEFORE:
        return DeleteBefore(cutoff, tail if has_exclude else None)
    if kind == _KIND_DELETE_SERIES_BEFORE:
        try:
            return DeleteSeriesBefore(parse_series_key(tail), cutoff)
        except ValueError as exc:
            raise ValueError(f"bad series marker: {exc}") from None
    raise ValueError(f"unknown marker kind {kind}")


def frame_block(block_type: int, payload: bytes) -> bytes:
    """Wrap a block payload in the on-disk/on-wire frame.

    The CRC covers the type and length fields too, so header damage is
    detected as corruption rather than trusted as framing.  Public
    because framed blocks *are* the replication wire unit: the
    replication log stores them, the shipper sends them verbatim, and
    the follower validates them with :func:`decode_frame`.
    """
    crc = zlib.crc32(payload, zlib.crc32(_HEADER_PREFIX.pack(block_type, len(payload))))
    return _HEADER.pack(block_type, len(payload), crc) + payload


_frame = frame_block


def frame_batch(batch: PointBatch) -> list[bytes]:
    """One batch as its framed block(s): the bytes the journal writes
    *and* the records the replication log retains.

    Usually one block.  A batch too large for one replication record
    (:data:`MAX_RECORD_BYTES`) splits by rows into blocks that each fit
    — every block repeats the key dictionary — so the journal and the
    log always hold the same frames and a follower never refuses what a
    primary committed.  Inside :func:`carried_frames` the frames made
    there are returned as they are, not encoded again.
    """
    carried = vars(batch).get("_frames")
    if carried is not None:
        return carried
    n = len(batch)
    if not n:
        return []
    room = MAX_RECORD_BYTES - 8 - _HEADER.size  # largest payload that ships
    if _ROW_BYTES * n <= room:
        payload = encode_batch(batch)
        if len(payload) <= room:
            return [_frame(_BLOCK_BATCH, payload)]
        dictionary = len(payload) - _ROW_BYTES * n
    else:  # too many rows for one block whatever the keys: size those alone
        dictionary = len(encode_batch(batch.rows(0, 1))) - _ROW_BYTES
    rows = (room - dictionary) // _ROW_BYTES
    if rows < 1:
        raise ValueError(
            f"key dictionary of {dictionary} bytes leaves no room for a row "
            f"in a {MAX_RECORD_BYTES}-byte record"
        )
    return [
        _frame(_BLOCK_BATCH, encode_batch(batch.rows(lo, lo + rows)))
        for lo in range(0, n, rows)
    ]


@contextmanager
def carried_frames(batch: PointBatch) -> Iterator[None]:
    """Frame ``batch`` once for every store layer under this call.

    The journal and the replication log sit in one ``put_batch`` call
    stack and write the same bytes; the outermost layer frames the
    batch here and :func:`frame_batch` hands those frames to the layers
    below.  They ride on the batch only for the duration of the
    ``with`` block — a caller that keeps its batches alive (a bulk
    loader, a retry buffer) must not keep a second, encoded copy of
    each alive with them.
    """
    state = vars(batch)
    if "_frames" in state:  # an outer layer is already carrying them
        yield
        return
    frames = state["_frames"] = frame_batch(batch)
    try:
        yield
    finally:
        # Drop only our own carry, and never raise: one batch object put
        # into two stacks from two threads can race the check above, and
        # a KeyError here would fail a write that is already committed.
        if state.get("_frames") is frames:
            state.pop("_frames", None)


def decode_frame(frame: bytes) -> tuple[int, bytes]:
    """Validate one complete in-memory framed block → ``(type, payload)``.

    The in-memory twin of the file reader's framing walk, for consumers
    that receive exactly one frame (a replication record): checks the
    length against the actual byte count and the CRC against header +
    payload, raising :class:`SegmentCorruption` on any mismatch.
    """
    if len(frame) < _HEADER.size:
        raise SegmentCorruption(0, "truncated block header")
    block_type, plen, crc = _HEADER.unpack_from(frame, 0)
    payload = frame[_HEADER.size :]
    if len(payload) != plen:
        raise SegmentCorruption(
            0, f"frame length mismatch ({len(payload)}/{plen} payload bytes)"
        )
    expect = zlib.crc32(payload, zlib.crc32(frame[: _HEADER_PREFIX.size]))
    if expect != crc:
        raise SegmentCorruption(0, "block checksum mismatch")
    return block_type, payload


def decode_block(
    block_type: int, payload: bytes
) -> PointBatch | DeleteBefore | DeleteSeriesBefore | None:
    """Decode a validated block payload into its typed value.

    Comments decode to ``None`` (readers skip them); an unknown block
    type raises ``ValueError``, mirroring :func:`iter_segments`.
    """
    if block_type == _BLOCK_BATCH:
        return decode_batch(payload)
    if block_type == _BLOCK_MARKER:
        return decode_marker(payload)
    if block_type == _BLOCK_COMMENT:
        return None
    raise ValueError(f"unknown block type 0x{block_type:02x}")


def _clean_length(path: Path) -> int:
    """Byte offset of the end of the last structurally complete block.

    Walks headers and seeks over payloads (no payload reads, no CRC
    work), so reopening a multi-GB WAL stays cheap; a header or payload
    cut short by a torn write marks the clean end.
    """
    size = path.stat().st_size
    with open(path, "rb") as fh:
        clean = len(SEGMENT_MAGIC)
        fh.seek(clean)
        while True:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return clean
            _, plen, _ = _HEADER.unpack(header)
            end = clean + _HEADER.size + plen
            if end > size:
                return clean
            fh.seek(end)
            clean = end


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------
class SegmentWriter:
    """Append-only segment writer: the one thing the store writes.

    One data entry point, :meth:`write_batch`, plus the two retention
    markers and :meth:`comment`; each call frames exactly what it was
    handed and puts it on disk before returning, so blocks land in call
    order.
    """

    def __init__(
        self, path: str | os.PathLike[str] | BinaryIO, *, append: bool = True
    ) -> None:
        if isinstance(path, (str, os.PathLike)):
            self._path: Path | None = Path(path)
            fresh = (
                not append
                or not self._path.exists()
                or self._path.stat().st_size == 0
            )
            if fresh:
                self._fh: BinaryIO = open(self._path, "wb")
                self._owns = True
                self._fh.write(SEGMENT_MAGIC)
                self._fh.flush()
            else:
                # Reopening an existing WAL (e.g. after a restart): drop
                # a torn tail *before* appending.  The format has no
                # resync marker — a partial block's length prefix would
                # swallow the start of whatever we append after it, so
                # blocks written post-restart would be unrecoverable.
                with open(self._path, "rb") as probe:
                    if probe.read(len(SEGMENT_MAGIC)) != SEGMENT_MAGIC:
                        raise SegmentCorruption(
                            0, f"{self._path} is not a segment file; refusing to append"
                        )
                clean = _clean_length(self._path)
                self._fh = open(self._path, "r+b")
                self._fh.seek(clean)
                self._fh.truncate(clean)
                self._owns = True
        else:
            self._path = None
            self._fh = path
            self._owns = False
            if not self._fh.seekable() or self._fh.tell() == 0:
                self._fh.write(SEGMENT_MAGIC)
        self._written = 0

    @property
    def written(self) -> int:
        """Points written (markers and comments don't count)."""
        return self._written

    def write_batch(self, batch: PointBatch) -> int:
        """Append one batch as (usually) one checksummed block — the
        frames of :func:`frame_batch`.

        Flushes per batch — WAL hooks rely on the block being on disk
        before the batch becomes visible in the store (durability
        precedes visibility)."""
        self._emit(frame_batch(batch), len(batch))
        return len(batch)

    def delete_before(
        self, cutoff: int, *, exclude_suffix: str | None = None
    ) -> None:
        """Append a retention marker block (flushes immediately — a
        buffered marker lost in a crash would resurrect deleted points
        on replay, exactly as in the text protocol)."""
        marker = DeleteBefore(int(cutoff), exclude_suffix)
        self._emit([_frame(_BLOCK_MARKER, encode_marker(marker))], 0)

    def delete_series_before(self, key: SeriesKey, cutoff: int) -> None:
        """Append a scoped-retention marker block (flushed immediately,
        like :meth:`delete_before` — same resurrect-on-replay hazard)."""
        marker = DeleteSeriesBefore(key, int(cutoff))
        self._emit([_frame(_BLOCK_MARKER, encode_marker(marker))], 0)

    def comment(self, text: str) -> None:
        self._emit([_frame(_BLOCK_COMMENT, text.encode("utf-8"))], 0)

    def _emit(self, frames: list[bytes], points: int) -> None:
        """Write and flush whole frames; all-or-nothing on disk.

        On a failed write (disk full mid-frame), a torn frame left on
        disk would swallow everything appended after it on replay — the
        format has no resync marker.  For writers that own their file,
        roll the file back to the pre-emit offset so the WAL stays
        appendable and the caller can simply retry.
        """
        if not frames:
            return
        data = b"".join(frames)
        if self._owns and self._path is not None:
            clean = self._fh.tell()
            try:
                self._fh.write(data)
                self._fh.flush()
            except BaseException:
                self._rollback(clean)
                raise
        else:
            self._fh.write(data)
            self._fh.flush()
        self._written += points

    def _rollback(self, clean: int) -> None:
        """Drop torn frame bytes: close the (possibly dirty) handle,
        truncate to the last clean offset, reopen for append."""
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            with open(self._path, "r+b") as fh:
                fh.truncate(clean)
        except OSError:
            return  # nothing recoverable; the next write fails loudly
        self._fh = open(self._path, "ab")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------
def iter_segments(
    source: str | os.PathLike[str] | BinaryIO,
    *,
    strict: bool = True,
) -> Iterator[PointBatch | DeleteBefore | DeleteSeriesBefore]:
    """Yield batch blocks and control markers from a segment, in order.

    With ``strict=False``, a block whose checksum or structure fails is
    skipped by its length prefix, and a truncated tail (or a corrupted
    length field, which is indistinguishable from one) ends iteration
    cleanly after the last clean block — the unclean-shutdown recovery
    path.  A missing or wrong magic always raises: that is a different
    *format*, not a damaged segment.
    """
    for offset, block_type, payload in _iter_blocks(source, strict=strict):
        try:
            item = decode_block(block_type, payload)
        except ValueError as exc:
            if strict:
                raise SegmentCorruption(offset, str(exc)) from None
            continue
        if item is not None:
            yield item


def _iter_blocks(
    source: str | os.PathLike[str] | BinaryIO, *, strict: bool
) -> Iterator[tuple[int, int, bytes]]:
    """The framing walk under every reader: yield CRC-validated
    ``(offset, block_type, payload)`` triples, applying the lenient
    skip/stop rules for damaged or truncated blocks; buffered reads,
    one block resident at a time."""
    if isinstance(source, (str, os.PathLike)):
        fh: BinaryIO = open(source, "rb")
        owns = True
    else:
        fh = source
        owns = False
    try:
        head = fh.read(len(SEGMENT_MAGIC))
        if head != SEGMENT_MAGIC:
            raise SegmentCorruption(0, f"bad segment magic {head!r}")
        offset = len(SEGMENT_MAGIC)
        while True:
            header = fh.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                if strict:
                    raise SegmentCorruption(offset, "truncated block header")
                return
            block_type, plen, crc = _HEADER.unpack(header)
            payload = fh.read(plen)
            if len(payload) < plen:
                if strict:
                    raise SegmentCorruption(
                        offset, f"truncated payload ({len(payload)}/{plen} bytes)"
                    )
                return
            start = offset
            offset += _HEADER.size + plen
            expect = zlib.crc32(payload, zlib.crc32(header[: _HEADER_PREFIX.size]))
            if expect != crc:
                if strict:
                    raise SegmentCorruption(start, "block checksum mismatch")
                continue
            yield start, block_type, payload
    finally:
        if owns:
            fh.close()


def _count_blocks(
    source: str | os.PathLike[str] | BinaryIO, *, strict: bool
) -> tuple[Counter[int], int]:
    """Blocks per type and total batch rows.  A framing walk only —
    CRCs are validated but columns are never decoded, so it costs one
    read pass, not a full columnar decode."""
    by_type: Counter[int] = Counter()
    points = 0
    for offset, block_type, payload in _iter_blocks(source, strict=strict):
        by_type[block_type] += 1
        if block_type != _BLOCK_BATCH:
            continue
        try:
            points += _batch_row_count(payload)
        except ValueError as exc:
            if strict:
                raise SegmentCorruption(offset, str(exc)) from None
    return by_type, points


def segment_point_count(
    source: str | os.PathLike[str] | BinaryIO, *, strict: bool = True
) -> int:
    """Total rows across a segment's batch blocks (markers excluded);
    columns are never decoded, so counting a large spill backlog at
    adoption time stays cheap."""
    return _count_blocks(source, strict=strict)[1]


@dataclass(frozen=True, slots=True)
class SegmentStats:
    """Framing-walk summary of one segment file — what a compaction
    trigger policy looks at before deciding to rewrite.

    Collected without decoding any columns (same cost profile as
    :func:`segment_point_count`), so polling a live WAL for "is it
    fragmented enough to compact?" stays cheap.
    """

    size_bytes: int
    blocks: int
    batch_blocks: int
    marker_blocks: int
    comment_blocks: int
    points: int

    @property
    def points_per_batch(self) -> float:
        """Mean batch-block granularity; low values mean a fragmented
        WAL of many small appends — the compaction signal."""
        if not self.batch_blocks:
            return 0.0
        return self.points / self.batch_blocks


def segment_stats(
    path: str | os.PathLike[str], *, strict: bool = False
) -> SegmentStats:
    """Summarize a segment file's block population and row count.

    Lenient by default (``strict=False``): a torn tail or damaged block
    should make a WAL *more* eligible for compaction, not crash the
    poller that decides whether to compact it.
    """
    path = Path(path)
    size = path.stat().st_size
    by_type, points = _count_blocks(path, strict=strict)
    return SegmentStats(
        size_bytes=size,
        blocks=sum(by_type.values()),
        batch_blocks=by_type[_BLOCK_BATCH],
        marker_blocks=by_type[_BLOCK_MARKER],
        comment_blocks=by_type[_BLOCK_COMMENT],
        points=points,
    )


def _batch_row_count(payload: bytes) -> int:
    """Row count of a batch payload, skipping the key dictionary and
    columns; validates the same structure ``decode_batch`` would."""
    off = 0
    try:
        (n_keys,) = _U32.unpack_from(payload, off)
        off += 4
        for _ in range(n_keys):
            (klen,) = _U16.unpack_from(payload, off)
            off += 2 + klen
        (n_rows,) = _U32.unpack_from(payload, off)
        off += 4
    except struct.error as exc:
        raise ValueError(f"bad batch block: {exc}") from None
    if len(payload) - off != n_rows * _ROW_BYTES:
        raise ValueError("bad batch block: column bytes disagree with row count")
    return n_rows
