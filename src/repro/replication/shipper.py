"""The shipper: streams replication-log records to a follower over TCP.

Wire protocol (all integers little-endian), one TCP connection at a
time, shipper dials the follower::

    shipper  → follower   magic  = b"RREP\\x00\\x01"          (6 bytes)
    follower → shipper    u64 applied_seq                     (handshake)
    shipper  → follower   record = u32 len · u64 seq · framed block
    follower → shipper    u64 ack (applied high-water mark)   (repeated)

An ack is **cumulative**: it carries the follower's applied high-water
mark and covers every record at or below it.  The follower sends one
per socket read that completed at least one record, not one per record,
so acks received ≤ records shipped.

Delivery is **at-least-once**: the shipper resumes from the follower's
handshake-reported high-water mark after any disconnect (catch-up
replay), so records can arrive duplicated — the follower's
sequence-based dedup makes apply idempotent.  Reliability mechanics:

- **bounded in-flight window** — at most ``window`` unacknowledged
  records on the wire; the next ack ships the rest;
- **exponential backoff + jitter on reconnect** — seeded, so failover
  tests replay deterministically;
- **acked trimming** — every ack frees log memory via
  :meth:`ReplicationLog.ack`.

The framed block inside each record is byte-identical to what the WAL
writer puts on disk, CRC and all; the follower re-validates it before
applying, so wire corruption is caught by the same checksum that
catches disk corruption.

Nothing parks between the hops: the log's wake-up, an arriving ack and
a drained transport each call :meth:`_Session.ship` straight from the
event loop's callback (an :class:`asyncio.Protocol`, no stream reader
and no task to resume), so one record costs the loop thread one pass
for the write and one for the ack.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import struct
from dataclasses import dataclass, field

from ..tsdb.segments import MAX_RECORD_BYTES
from .log import DEFAULT_FOLLOWER, ReplicationLog

#: First bytes of every replication connection (includes the version).
REPLICATION_MAGIC = b"RREP\x00\x01"

_U64 = struct.Struct("<Q")
_RECORD_HEAD = struct.Struct("<IQ")  # length (of seq + frame), seq

#: How long :meth:`SegmentShipper.wait_caught_up` sleeps between looks
#: at the log when no ack arrives to wake it — the safety net under the
#: event, not a poll interval anyone should notice.
_CAUGHT_UP_RECHECK_S = 0.05


def _record_parts(seq: int, frame: bytes) -> tuple[bytes, bytes]:
    """One wire record as the buffers a transport writes: the head
    (length prefix, sequence number) and the framed block, uncopied."""
    return _RECORD_HEAD.pack(8 + len(frame), seq), frame


def encode_record(seq: int, frame: bytes) -> bytes:
    """One wire record as contiguous bytes — for tests and tools; the
    session hands the transport the same parts without joining them."""
    return b"".join(_record_parts(seq, frame))


class _Session(asyncio.Protocol):
    """One connection to the follower, driven by the loop's callbacks.

    :meth:`ship` writes every pending record the window has room for
    and is called wherever records or room may have appeared: on the
    log's wake-up, on an ack (the handshake reply is the first), when a
    full transport drains.
    """

    def __init__(self, shipper: "SegmentShipper") -> None:
        self.shipper = shipper
        self.transport: asyncio.Transport | None = None
        #: resolved when the socket is gone, for whatever reason
        self.lost = asyncio.get_running_loop().create_future()
        self._marks = bytearray()  # the follower's u64s, as they arrive
        self._handshaken = False
        self._writable = True

    def connection_made(self, transport) -> None:
        self.transport = transport
        # From here on the log's wake-ups reach this connection: an
        # append can land before run() has been resumed with it.
        self.shipper._session = self
        transport.write(REPLICATION_MAGIC)

    def data_received(self, data: bytes) -> None:
        shipper = self.shipper
        marks = self._marks
        marks += data
        whole = len(marks) - len(marks) % 8
        for (mark,) in _U64.iter_unpack(bytes(marks[:whole])):
            if self._handshaken:
                shipper.stats.acks_received += 1
            else:
                # Catch-up replay starts exactly at the follower's
                # high-water mark: everything at or below it is already
                # applied over there.
                self._handshaken = True
                shipper._cursor = mark
                shipper.stats.connects += 1
            shipper.log.ack(mark, follower=shipper.follower)
        del marks[:whole]
        if whole:
            shipper._acked.set()
            self.ship()

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self.ship()

    def connection_lost(self, exc) -> None:
        self._writable = False
        if self.shipper._session is self:
            self.shipper._session = None
        if not self.lost.done():
            self.lost.set_result(None)

    def ship(self) -> None:
        shipper = self.shipper
        log = shipper.log
        if shipper._cursor >= log.last_seq or not (
            self._handshaken and self._writable
        ):
            return
        free = shipper.window - (shipper._cursor - log.acked_for(shipper.follower))
        if free <= 0:
            return  # a full window: the next ack ships
        records = log.pending_after(shipper._cursor, limit=free)
        parts = []
        for seq, frame in records:
            parts.extend(_record_parts(seq, frame))
            if seq <= shipper._max_shipped:
                shipper.stats.records_resent += 1
        shipper.stats.records_shipped += len(records)
        shipper._cursor = records[-1][0]
        shipper._max_shipped = max(shipper._max_shipped, shipper._cursor)
        self.transport.writelines(parts)


@dataclass
class ShipperStats:
    connects: int = 0
    connect_failures: int = 0
    reconnects: int = 0
    records_shipped: int = 0
    records_resent: int = 0
    #: cumulative acks read off the wire (one per follower read that
    #: completed a record, each covering every record up to its mark)
    acks_received: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SegmentShipper:
    """Ships a :class:`ReplicationLog` to one follower, forever.

    Run :meth:`run` inside an event loop (or :meth:`start` to spawn it
    as a task).  The shipper never blocks the write path: writers append
    to the log and return; shipping is asynchronous by construction —
    the paper's sensor ingest must not stall on a WAN hiccup.

    ``follower`` names this shipper's ack cursor in the log: give each
    shipper on a shared log a distinct name and the log fans out to all
    of them, trimming only below the slowest follower's cursor.
    """

    log: ReplicationLog
    host: str
    port: int
    window: int = 64
    backoff: float = 0.05
    max_backoff: float = 2.0
    jitter: float = 0.25
    connect_timeout: float = 5.0
    seed: int | None = None
    follower: str = DEFAULT_FOLLOWER
    stats: ShipperStats = field(default_factory=ShipperStats)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        self._rng = random.Random(self.seed)
        self._stopping = False
        self._task: asyncio.Task | None = None
        self._session: _Session | None = None
        # Set on every ack; wait_caught_up's wake.  Made here, not in
        # run(): a caller may await wait_caught_up before run() has had
        # its first step, and an asyncio.Event binds to a loop on its
        # first wait, not at construction.
        self._acked = asyncio.Event()
        self._cursor = 0  # highest seq written to the current connection
        self._max_shipped = 0  # highest seq ever put on any connection
        # Hold records from the moment the shipper exists: without the
        # cursor registered, a faster sibling's acks could trim records
        # this follower has not seen yet.
        self.log.register_follower(self.follower)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> asyncio.Task:
        """Spawn :meth:`run` as a task on the running loop."""
        self._task = asyncio.get_running_loop().create_task(self.run())
        return self._task

    async def stop(self) -> None:
        """Stop shipping; in-flight but unacked records stay in the log."""
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    async def run(self) -> None:
        """Connect-ship-reconnect loop; returns only via :meth:`stop`."""
        loop = asyncio.get_running_loop()
        self.log.subscribe(loop, self._on_append)
        failures = 0
        try:
            while not self._stopping:
                try:
                    transport, session = await asyncio.wait_for(
                        loop.create_connection(
                            lambda: _Session(self), self.host, self.port
                        ),
                        self.connect_timeout,
                    )
                except (OSError, asyncio.TimeoutError):
                    self.stats.connect_failures += 1
                    await self._sleep_backoff(failures)
                    failures += 1
                    continue
                try:
                    # Shielded: stop() cancels this task, not the future
                    # the transport resolves when the socket is gone.
                    await asyncio.shield(session.lost)
                finally:
                    transport.close()
                    await session.lost
                failures += 1
                if not self._stopping:
                    self.stats.reconnects += 1
                    await self._sleep_backoff(failures)
        finally:
            self.log.unsubscribe(loop, self._on_append)

    async def _sleep_backoff(self, attempt: int) -> None:
        delay = min(self.max_backoff, self.backoff * (2 ** min(attempt, 16)))
        # Full +/- jitter so a fleet of shippers spreads its reconnects.
        delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        await asyncio.sleep(max(0.0, delay))

    def _on_append(self) -> None:
        """The log's wake-up, on the loop: ship what has accumulated."""
        if self._session is not None:
            self._session.ship()

    # -- synchronization helpers ----------------------------------------
    @property
    def lag_records(self) -> int:
        """Records appended but not yet acknowledged by *this* follower."""
        return self.log.last_seq - self.log.acked_for(self.follower)

    async def wait_caught_up(self, timeout: float | None = None) -> None:
        """Await full acknowledgment by this follower of everything
        currently in the log.  Await it on the loop :meth:`run` runs on:
        the wake-up is an :class:`asyncio.Event` every ack sets."""
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while self.log.acked_for(self.follower) < self.log.last_seq:
            recheck = _CAUGHT_UP_RECHECK_S
            if deadline is not None:
                recheck = min(recheck, deadline - loop.time())
                if recheck <= 0:
                    raise TimeoutError(
                        f"follower {self.lag_records} records behind after {timeout}s"
                    )
            # Acks land on this loop, so none can slip between clear()
            # and wait(); the recheck is the safety net for a cursor
            # moved by anyone else (``log.ack`` called directly).
            self._acked.clear()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._acked.wait(), recheck)


__all__ = [
    "MAX_RECORD_BYTES",
    "REPLICATION_MAGIC",
    "SegmentShipper",
    "ShipperStats",
    "encode_record",
]
