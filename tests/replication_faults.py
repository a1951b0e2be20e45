"""Deterministic fault injection for the replication wire (test tooling).

The equivalence bar for replication ("promoted follower byte-identical
to a from-scratch build of the acknowledged input") only means
something if the suite can *manufacture* the failures a WAN delivers:
dropped connections, duplicated and reordered records, torn tails,
flipped bytes.  This module supplies them on schedule:

- :class:`FaultPlan` — a seeded, replayable schedule.  Every decision
  for record event *i* (which action, where to cut a truncation, which
  byte to flip) derives from ``crc32(f"{seed}:{i}")``, so a plan is a
  pure function of its parameters: the same seed replays the same
  faults regardless of timing, and a failing example shrinks and
  re-runs exactly.  ``max_faults`` bounds total injections so every
  schedule eventually delivers (liveness, not just safety).
- :class:`FaultProxy` — a record-aware TCP proxy inserted between
  shipper and follower.  It parses the replication protocol (magic,
  then ``u32 len``-prefixed records) and applies the plan per record:

  =========== ========================================================
  ``pass``     forward verbatim
  ``cut``      close both directions mid-stream (connection drop)
  ``truncate`` forward a *prefix* of the record, then close (torn tail)
  ``corrupt``  flip one payload byte (CRC must catch it downstream)
  ``dup``      forward the record twice (at-least-once resend)
  ``swap``     hold the record, emit it after the next one (reorder →
               the follower sees a gap and forces catch-up); a held
               record with no successor flushes after ``hold_flush_s``
               of idle so a swap on the last record cannot stall the
               stream forever
  ``delay``    sleep before forwarding (lag spike)
  =========== ========================================================

  Follower→shipper bytes (handshake reply, acks) pass through
  untouched; connection attempts listed in ``refuse_connects`` are
  refused outright to exercise reconnect backoff.
- :func:`wait_applied` — await a follower's applied high-water mark.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import struct
import zlib
from dataclasses import dataclass, field

from repro.replication import REPLICATION_MAGIC, Follower

_U32 = struct.Struct("<I")

#: Everything a plan can do to one record event.
FAULT_ACTIONS = ("cut", "truncate", "corrupt", "dup", "swap", "delay")


@dataclass
class FaultPlan:
    """A seeded schedule of per-record fault decisions.

    ``p_*`` are independent probabilities summing to at most 1; the
    remainder is ``pass``.  Decisions are memoized per record index, so
    querying them twice (or out of order) cannot change the schedule.
    """

    seed: int = 0
    p_cut: float = 0.0
    p_truncate: float = 0.0
    p_corrupt: float = 0.0
    p_dup: float = 0.0
    p_swap: float = 0.0
    p_delay: float = 0.0
    delay_s: float = 0.002
    refuse_connects: tuple[int, ...] = ()
    max_faults: int | None = None
    _decisions: dict[int, str] = field(default_factory=dict, repr=False)
    _faults: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        total = (
            self.p_cut
            + self.p_truncate
            + self.p_corrupt
            + self.p_dup
            + self.p_swap
            + self.p_delay
        )
        if total > 1.0 + 1e-9:
            raise ValueError(f"fault probabilities sum to {total} > 1")

    @classmethod
    def chaos(
        cls, seed: int, *, intensity: float = 0.3, max_faults: int | None = 16
    ) -> "FaultPlan":
        """An even mixture of every fault type at ``intensity`` total."""
        p = intensity / len(FAULT_ACTIONS)
        return cls(
            seed=seed,
            p_cut=p,
            p_truncate=p,
            p_corrupt=p,
            p_dup=p,
            p_swap=p,
            p_delay=p,
            max_faults=max_faults,
        )

    def _rng_for(self, kind: str, index: int) -> random.Random:
        # crc32 of a stable string: independent of PYTHONHASHSEED, so a
        # plan replays identically across processes.
        return random.Random(zlib.crc32(f"{self.seed}:{kind}:{index}".encode()))

    def action(self, index: int) -> str:
        """The (memoized) action for record event ``index``."""
        decided = self._decisions.get(index)
        if decided is not None:
            return decided
        roll = self._rng_for("action", index).random()
        action = "pass"
        cumulative = 0.0
        for name, p in (
            ("cut", self.p_cut),
            ("truncate", self.p_truncate),
            ("corrupt", self.p_corrupt),
            ("dup", self.p_dup),
            ("swap", self.p_swap),
            ("delay", self.p_delay),
        ):
            cumulative += p
            if roll < cumulative:
                action = name
                break
        if action != "pass":
            if self.max_faults is not None and self._faults >= self.max_faults:
                action = "pass"
            else:
                self._faults += 1
        self._decisions[index] = action
        return action

    def refuse_connect(self, conn_index: int) -> bool:
        return conn_index in self.refuse_connects

    def truncate_at(self, index: int, record_len: int) -> int:
        """Byte offset (>=1, < record_len) to cut record ``index`` at."""
        return self._rng_for("truncate", index).randrange(1, max(2, record_len))

    def corrupt_at(self, index: int, record_len: int) -> int:
        """Byte offset to flip, past the length prefix and the sequence
        number so the damage lands in the framed block — the follower
        must catch it by CRC, not by framing accident."""
        lo = min(12, record_len - 1)
        return self._rng_for("corrupt", index).randrange(lo, record_len)


class _SessionCut(Exception):
    """Internal: the plan asked for this connection to die now."""


class FaultProxy:
    """A record-aware TCP proxy applying a :class:`FaultPlan`.

    Point the shipper at the proxy's ``(host, port)`` and the proxy at
    the real follower; every shipper→follower record passes through the
    plan.  Record event indexes are global across connections, so a
    schedule spans reconnects deterministically.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: FaultPlan,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        hold_flush_s: float = 0.05,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan
        self.host = host
        self.port = port
        self.hold_flush_s = hold_flush_s
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self._conn_index = 0
        self._record_index = 0
        self.connections = 0
        self.refused = 0
        self.injected: dict[str, int] = {}

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)

    async def _handle(
        self, c_reader: asyncio.StreamReader, c_writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        conn = self._conn_index
        self._conn_index += 1
        u_writer: asyncio.StreamWriter | None = None
        try:
            if self.plan.refuse_connect(conn):
                self.refused += 1
                return
            try:
                u_reader, u_writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port
                )
            except OSError:
                return
            self.connections += 1
            self._writers.add(c_writer)
            self._writers.add(u_writer)
            down = asyncio.create_task(self._pipe_verbatim(u_reader, c_writer))
            up = asyncio.create_task(self._pipe_records(c_reader, u_writer))
            try:
                await asyncio.wait({down, up}, return_when=asyncio.FIRST_COMPLETED)
            finally:
                for task in (down, up):
                    task.cancel()
                await asyncio.gather(down, up, return_exceptions=True)
        finally:
            self._writers.discard(c_writer)
            c_writer.close()
            with contextlib.suppress(Exception):
                await c_writer.wait_closed()
            if u_writer is not None:
                self._writers.discard(u_writer)
                u_writer.close()
                with contextlib.suppress(Exception):
                    await u_writer.wait_closed()

    @staticmethod
    async def _pipe_verbatim(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Follower→shipper direction: handshake replies and acks are
        never faulted (the plan models an unreliable *forward* path)."""
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            return

    async def _pipe_records(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        held: bytes | None = None
        try:
            magic = await reader.readexactly(len(REPLICATION_MAGIC))
            writer.write(magic)
            await writer.drain()
            while True:
                if held is not None:
                    # Liveness: a swapped record whose successor never
                    # arrives (it was the last one) flushes after a
                    # short idle — delayed delivery, not silent loss.
                    # readexactly extracts nothing until all 4 bytes
                    # are buffered, so a timeout here loses no bytes.
                    try:
                        head = await asyncio.wait_for(
                            reader.readexactly(4), self.hold_flush_s
                        )
                    except asyncio.TimeoutError:
                        writer.write(held)
                        await writer.drain()
                        held = None
                        continue
                else:
                    head = await reader.readexactly(4)
                (length,) = _U32.unpack(head)
                body = await reader.readexactly(length)
                record = head + body
                index = self._record_index
                self._record_index += 1
                action = self.plan.action(index)
                if action != "pass":
                    self.injected[action] = self.injected.get(action, 0) + 1
                if action == "cut":
                    raise _SessionCut
                if action == "truncate":
                    writer.write(record[: self.plan.truncate_at(index, len(record))])
                    await writer.drain()
                    raise _SessionCut
                if action == "corrupt":
                    damaged = bytearray(record)
                    damaged[self.plan.corrupt_at(index, len(record))] ^= 0xFF
                    writer.write(bytes(damaged))
                elif action == "dup":
                    writer.write(record + record)
                elif action == "swap":
                    if held is None:
                        held = record
                        continue  # emitted after the next record
                    writer.write(record + held)
                    held = None
                else:
                    if action == "delay":
                        await asyncio.sleep(self.plan.delay_s)
                    writer.write(record)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return
        except _SessionCut:
            return
        # A held swap record at stream end is simply dropped — the
        # follower never acked it, so catch-up replay re-ships it.


async def wait_applied(
    follower: Follower, seq: int, timeout: float | None = None
) -> None:
    """Poll until ``follower`` has applied through ``seq``."""
    loop = asyncio.get_running_loop()
    deadline = None if timeout is None else loop.time() + timeout
    while follower.applied_seq < seq:
        if deadline is not None and loop.time() >= deadline:
            raise TimeoutError(
                f"applied {follower.applied_seq} < {seq} after {timeout}s"
            )
        await asyncio.sleep(0.001)


__all__ = ["FAULT_ACTIONS", "FaultPlan", "FaultProxy", "wait_applied"]
