"""The follower: applies shipped records into its own store, idempotently.

A :class:`Follower` is the hot standby half of the pair: it listens for
shipper connections, answers the handshake with its applied high-water
mark (so the shipper resumes exactly where the follower left off), and
applies records **strictly in sequence**:

- ``seq <= applied``  → duplicate from an at-least-once resend: ack it
  again, apply nothing (the dedup that makes replay idempotent —
  re-applying a batch after a later ``delete_before`` would resurrect
  deleted points, so "apply once, in order" is the only safe rule);
- ``seq == applied+1`` → validate the framed block (same CRC the WAL
  reader uses), apply it, advance, ack;
- ``seq >  applied+1`` → a gap: something upstream reordered or dropped
  a record.  The follower drops the connection; the shipper reconnects
  and catch-up replay heals the hole.  Likewise for a corrupt frame.

Records are taken off the socket as they have accumulated: one read,
every complete record in it walked under the rules above, then **one
cumulative ack** — the applied high-water mark, covering every record
at or below it — for the whole read.  The read, the walk and the ack
happen inside the event loop's own callback for the socket (an
:class:`asyncio.Protocol`): no stream reader and no task to resume
between a record's arrival and its ack.

``promote()`` turns the standby into a primary: the listener closes,
in-flight connections stop applying, and the store — byte-identical to
the acknowledged prefix of the primary's history — is handed to the
caller to serve reads and writes (``python -m repro follow`` wires it
straight into a :class:`~repro.serve.server.QueryServer`).
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..tsdb import segments
from ..tsdb.batch import PointBatch
from ..tsdb.database import TSDB
from ..tsdb.segments import (
    DeleteBefore,
    DeleteSeriesBefore,
    SegmentCorruption,
    decode_block,
    decode_frame,
)
from .shipper import REPLICATION_MAGIC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tsdb.interface import TimeSeriesStore

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


@dataclass
class FollowerStats:
    connections: int = 0
    bad_handshakes: int = 0
    records_applied: int = 0
    points_applied: int = 0
    duplicates: int = 0
    gaps: int = 0
    corrupt_frames: int = 0
    torn_tails: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _Connection(asyncio.Protocol):
    """One shipper connection, driven by the loop's callbacks: after
    the handshake every socket read goes straight through
    :meth:`Follower._apply_buffered` and is answered with one
    cumulative ack."""

    def __init__(self, follower: "Follower") -> None:
        self.follower = follower
        self.transport: asyncio.Transport | None = None
        #: resolved when the socket is gone, for whatever reason
        self.lost = asyncio.get_running_loop().create_future()
        self._buf = bytearray()
        self._handshaken = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.follower._connections.add(self)

    def data_received(self, data: bytes) -> None:
        follower, buf = self.follower, self._buf
        buf += data
        if not self._handshaken:
            if len(buf) < len(REPLICATION_MAGIC):
                return
            if not buf.startswith(REPLICATION_MAGIC) or follower._promoted:
                follower.stats.bad_handshakes += 1
                self.transport.close()
                return
            del buf[: len(REPLICATION_MAGIC)]
            self._handshaken = True
            follower.stats.connections += 1
            self.transport.write(_U64.pack(follower.applied_seq))
        before = follower.applied_seq, follower.stats.duplicates
        consumed, healthy = follower._apply_buffered(buf)
        del buf[:consumed]
        if before != (follower.applied_seq, follower.stats.duplicates):
            # One cumulative ack for everything this read completed
            # (a resend too: the shipper's window and retained log
            # must advance even when nothing applies).
            self.transport.write(_U64.pack(follower.applied_seq))
        if not healthy:
            self.transport.close()  # the shipper reconnects; catch-up heals

    def eof_received(self) -> None:
        if not self._handshaken:
            self.follower.stats.bad_handshakes += 1
        elif self._buf:
            # A record cut mid-frame: the torn-tail of the wire.
            self.follower.stats.torn_tails += 1

    def connection_lost(self, exc) -> None:
        self.follower._connections.discard(self)
        if not self.lost.done():
            self.lost.set_result(None)


@dataclass
class Follower:
    """Hot-standby replica: one listening socket, one store, one cursor.

    ``store`` defaults to a fresh :class:`TSDB`.
    """

    store: "TimeSeriesStore | None" = None
    host: str = "127.0.0.1"
    port: int = 0
    stats: FollowerStats = field(default_factory=FollowerStats)

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = TSDB()
        self.applied_seq = 0
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._promoted = False

    @property
    def promoted(self) -> bool:
        return self._promoted

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("follower already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Close the listener and every live replication connection."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Wait for the sockets to go, so no transport outlives the
        # follower into loop teardown.
        connections = list(self._connections)
        for connection in connections:
            connection.transport.close()
        for connection in connections:
            await connection.lost
        if server is not None:
            with contextlib.suppress(Exception):
                await server.wait_closed()

    def promote(self) -> "TimeSeriesStore":
        """Become the primary: stop accepting replication traffic and
        hand back the store.

        Synchronous and idempotent on purpose — it must be callable from
        a signal handler.  Connections mid-record finish their socket
        reads but apply nothing further; the store stops changing the
        moment this returns.
        """
        self._promoted = True
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            connection.transport.close()
        assert self.store is not None
        return self.store

    # -- applying what a connection has read ------------------------------
    def _apply_buffered(self, buf: bytearray) -> tuple[int, bool]:
        """Apply every complete record at the front of ``buf``, strictly
        in sequence; returns the bytes consumed and whether the
        connection is still good (False after a gap, a corrupt or
        oversize frame, or a promotion: nothing further may apply)."""
        off = 0
        while len(buf) - off >= 4:
            if self._promoted:
                return off, False
            (length,) = _U32.unpack_from(buf, off)
            # (the bound is read through the module: it is the writer's
            # bound too, one constant, and tests lower it)
            if length < 8 or length > segments.MAX_RECORD_BYTES:
                self.stats.corrupt_frames += 1
                return off, False  # framing is unrecoverable
            end = off + 4 + length
            if end > len(buf):
                break  # the rest of this record has not arrived yet
            (seq,) = _U64.unpack_from(buf, off + 4)
            if seq <= self.applied_seq:
                self.stats.duplicates += 1  # at-least-once resend
                off = end
                continue
            if seq != self.applied_seq + 1:
                # A gap: never apply out of order — drop the connection
                # and let catch-up replay refill from applied_seq.
                self.stats.gaps += 1
                return off, False
            try:
                block_type, payload = decode_frame(
                    bytes(memoryview(buf)[off + 12 : end])
                )
                item = decode_block(block_type, payload)
            except (SegmentCorruption, ValueError):
                self.stats.corrupt_frames += 1
                return off, False  # same healing path as a gap
            if self._promoted:  # promotion raced the decode: apply nothing
                return off, False
            self._apply(item)
            self.applied_seq = seq
            self.stats.records_applied += 1
            off = end
        return off, True

    def _apply(self, item) -> None:
        assert self.store is not None
        if isinstance(item, PointBatch):
            self.store.put_batch(item)
            self.stats.points_applied += len(item)
        elif isinstance(item, DeleteSeriesBefore):
            self.store.delete_series_before(item.key, item.cutoff)
        elif isinstance(item, DeleteBefore):
            self.store.delete_before(
                item.cutoff, exclude_suffix=item.exclude_suffix
            )
        # Comments decode to None and apply as nothing (but still ack).


__all__ = ["Follower", "FollowerStats"]
