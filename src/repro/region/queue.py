"""Bounded batch queues with explicit backpressure policies.

The decoupling point of the regional fan-in layer: each city's dataport
enqueues :class:`~repro.tsdb.batch.PointBatch` traffic into an
:class:`AsyncBatchQueue`, and the :class:`~repro.region.hub.RegionalHub`
drains queues into the regional store on simulation-clock ticks.  The
queue is the *only* buffer between MQTT ingestion (hop 4) and TSDB
flushes (hop 5), so a slow regional store shows up here as measurable
depth — never as a stalled ingestion path.

Three policies govern what happens when the queue is full:

- ``block``       — the offer is refused; the producer holds the batch
  and retries (no data loss, producer-side buffering grows);
- ``drop-oldest`` — the oldest queued rows are evicted to make room,
  with exact drop accounting (newest data always wins);
- ``spill``       — the oldest queued batches overflow to disk as
  binary columnar segments (:mod:`repro.tsdb.segments`; whole-column
  encode, no per-point objects) and are recovered, in order, on drain.
  Legacy line-protocol spill files from older processes are still
  adopted and replayed on restart.

All transitions are synchronous and deterministic: there are no threads,
only scheduler ticks, so queue behaviour replays identically run-to-run.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

from ..backpressure import Backpressure
from ..tsdb.batch import PointBatch
from ..tsdb.persistence import SegmentWriter, detect_format, iter_batches
from ..tsdb.segments import segment_point_count


@dataclass
class QueueStats:
    """Cumulative per-queue accounting (all counts are points/rows).

    Conservation invariant (enforced by the property suite)::

        accepted_points == drained_points + dropped_points
                           + depth_points + spill_pending_points
    """

    offered_points: int = 0
    accepted_points: int = 0
    refused_offers: int = 0
    refused_points: int = 0
    dropped_batches: int = 0
    dropped_points: int = 0
    spilled_batches: int = 0
    spilled_points: int = 0
    recovered_points: int = 0
    drained_batches: int = 0
    drained_points: int = 0
    flushes: int = 0
    high_watermark: int = 0
    last_drain_at: int | None = None

    def as_dict(self) -> dict:
        return asdict(self)


#: Spill segments this queue owns: ``spill-<seq>.seg`` (binary) or the
#: legacy ``spill-<seq>.log`` (text, pre-segment processes).
_SPILL_FILE_RE = re.compile(r"^spill-(\d+)\.(seg|log)$")


class AsyncBatchQueue:
    """Bounded FIFO of :class:`PointBatch` between ingestion and flushes.

    ``capacity`` bounds the *in-memory* depth in points; the invariant
    ``depth_points <= capacity`` holds after every operation, for every
    policy.  Under ``spill`` the overflow lives on disk (oldest first)
    and :meth:`drain` recovers it ahead of the in-memory batches, so
    global FIFO order is preserved across the spill boundary.
    """

    def __init__(
        self,
        capacity: int,
        policy: Backpressure | str = Backpressure.BLOCK,
        *,
        spill_dir: str | Path | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.policy = Backpressure.coerce(policy)
        self.stats = QueueStats()
        self._batches: deque[PointBatch] = deque()
        self._depth = 0
        self._spill_dir: Path | None = None
        self._spill_segments: deque[tuple[Path, int]] = deque()
        self._spill_seq = 0
        self._spill_pending = 0
        if self.policy is Backpressure.SPILL:
            if spill_dir is None:
                raise ValueError("spill backpressure requires spill_dir=")
            self._spill_dir = Path(spill_dir)
            self._spill_dir.mkdir(parents=True, exist_ok=True)
            self._adopt_leftover_segments()

    def _adopt_leftover_segments(self) -> None:
        """Crash recovery: segments a previous process left in the spill
        directory become pending spill (oldest first) rather than being
        appended to under reused names and replayed as phantom data.
        Both binary ``.seg`` segments and legacy line-protocol ``.log``
        segments (spilled before the columnar format landed) are
        adopted — the read side auto-detects per file.  Only files
        matching the exact ``spill-<seq>`` naming are touched; anything
        else in the directory (an operator's backup copy, say) is left
        alone rather than crashing lane construction.  Adopted rows
        count as offered+accepted+spilled so the conservation invariant
        keeps holding exactly.
        """
        leftovers = sorted(
            (p for p in self._spill_dir.iterdir() if _SPILL_FILE_RE.match(p.name)),
            key=lambda p: int(p.stem.split("-")[1]),
        )
        for path in leftovers:
            # strict=False: a segment torn by the very crash we are
            # recovering from must yield its clean prefix, not kill the
            # lane at construction time.  Binary segments count rows by
            # a framing walk (no columnar decode — that happens once, at
            # drain); only legacy text files need a full parse.
            if detect_format(path) == "binary":
                n = segment_point_count(path, strict=False)
            else:
                n = sum(
                    len(b)
                    for b in iter_batches(path, strict=False)
                    if isinstance(b, PointBatch)
                )
            if n == 0:
                path.unlink()
                continue
            self._spill_segments.append((path, n))
            self._spill_pending += n
            self.stats.offered_points += n
            self.stats.accepted_points += n
            self.stats.spilled_batches += 1
            self.stats.spilled_points += n
        if leftovers:
            self._spill_seq = (
                max(int(p.stem.split("-")[1]) for p in leftovers) + 1
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def depth_points(self) -> int:
        """Points currently buffered in memory (always <= capacity)."""
        return self._depth

    @property
    def depth_batches(self) -> int:
        return len(self._batches)

    @property
    def spill_pending_points(self) -> int:
        """Points parked on disk, not yet recovered by a drain."""
        return self._spill_pending

    @property
    def backlog_points(self) -> int:
        """Everything a drain could still deliver (memory + spill)."""
        return self._depth + self._spill_pending

    def spill_files(self) -> tuple[Path, ...]:
        """Paths of pending spill segments, oldest first.

        Spill segments are ordinary segment files, so they double as a
        replication source: a
        :meth:`~repro.replication.ReplicationLog.append_segment` per
        path ships a lane's parked backlog to a follower without
        draining it locally first.  The paths remain owned by this
        queue — a later drain still consumes (and deletes) them.
        """
        return tuple(path for path, _ in self._spill_segments)

    def is_empty(self) -> bool:
        return self.backlog_points == 0

    # ------------------------------------------------------------------
    # Enqueue side
    # ------------------------------------------------------------------
    def offer(self, batch: PointBatch) -> bool:
        """Enqueue a batch; returns False only under ``block`` when full.

        ``drop-oldest`` and ``spill`` always accept: the policy decides
        which *older* rows make room (eviction with exact accounting, or
        overflow to disk).  A batch larger than the whole capacity is
        handled per policy too — trimmed to its newest ``capacity`` rows
        under ``drop-oldest``, spilled wholesale under ``spill``.
        """
        n = len(batch)
        self.stats.offered_points += n
        if n == 0:
            return True
        if self._depth + n <= self.capacity:
            self._accept(batch)
            return True
        if self.policy is Backpressure.BLOCK:
            self.stats.refused_offers += 1
            self.stats.refused_points += n
            return False
        if self.policy is Backpressure.DROP_OLDEST:
            self._make_room_by_dropping(n)
            if n > self.capacity:
                # The batch alone exceeds the bound: keep its newest rows.
                self.stats.accepted_points += n
                self.stats.dropped_batches += 1
                self.stats.dropped_points += n - self.capacity
                batch = batch.rows(n - self.capacity, n)
                self._push(batch)
                return True
            self._accept(batch)
            return True
        # SPILL: oldest in-memory batches overflow to disk until it fits.
        while self._batches and self._depth + n > self.capacity:
            victim = self._batches.popleft()
            self._depth -= len(victim)
            self._spill_out(victim)
        if n > self.capacity:
            self.stats.accepted_points += n
            self._spill_out(batch)
            return True
        self._accept(batch)
        return True

    def _accept(self, batch: PointBatch) -> None:
        self.stats.accepted_points += len(batch)
        self._push(batch)

    def _push(self, batch: PointBatch) -> None:
        self._batches.append(batch)
        self._depth += len(batch)
        if self._depth > self.stats.high_watermark:
            self.stats.high_watermark = self._depth

    def _make_room_by_dropping(self, incoming: int) -> None:
        """Evict exactly the oldest rows needed to fit ``incoming``.

        Whole batches go first; the boundary batch is row-trimmed (via
        :meth:`PointBatch.rows`) so eviction never over-drops by up to a
        batch of retainable data.
        """
        needed = self._depth + incoming - self.capacity
        while self._batches and needed > 0:
            head = self._batches[0]
            if len(head) <= needed:
                self._batches.popleft()
                self._depth -= len(head)
                needed -= len(head)
                self.stats.dropped_batches += 1
                self.stats.dropped_points += len(head)
            else:
                self._batches[0] = head.rows(needed, len(head))
                self._depth -= needed
                self.stats.dropped_points += needed
                needed = 0

    def _spill_out(self, batch: PointBatch) -> None:
        assert self._spill_dir is not None
        path = self._spill_dir / f"spill-{self._spill_seq:08d}.seg"
        self._spill_seq += 1
        with SegmentWriter(path, append=False) as writer:
            writer.write_batch(batch)
        self._spill_segments.append((path, len(batch)))
        self._spill_pending += len(batch)
        self.stats.spilled_batches += 1
        self.stats.spilled_points += len(batch)

    # ------------------------------------------------------------------
    # Drain side
    # ------------------------------------------------------------------
    def drain(
        self, max_points: int | None = None, *, now: int | None = None
    ) -> PointBatch:
        """Dequeue up to ``max_points`` in FIFO order as one batch.

        Spilled segments (the oldest data) recover first.  Granularity is
        whole batches: at least one pending batch is always taken, so a
        tiny limit still makes progress, and the returned batch may
        overshoot the limit by at most one enqueued batch.
        """
        if max_points is not None and max_points <= 0:
            raise ValueError("max_points must be positive (or None)")
        parts: list[PointBatch] = []
        taken = 0
        while self._spill_segments and (max_points is None or taken < max_points):
            path, n = self._spill_segments.popleft()
            parts.append(self._read_segment(path))
            self._spill_pending -= n
            self.stats.recovered_points += n
            taken += n
        while self._batches and (max_points is None or taken < max_points):
            batch = self._batches.popleft()
            self._depth -= len(batch)
            parts.append(batch)
            taken += len(batch)
        if not parts:
            return PointBatch.empty()
        self.stats.drained_batches += len(parts)
        self.stats.drained_points += taken
        self.stats.flushes += 1
        if now is not None:
            self.stats.last_drain_at = int(now)
        return PointBatch.concat(parts)

    @staticmethod
    def _read_segment(path: Path) -> PointBatch:
        """Recover one spill segment as a batch (format auto-detected,
        so legacy text segments replay alongside binary ones; lenient,
        so a crash-torn tail yields the clean prefix)."""
        batches = [
            b for b in iter_batches(path, strict=False) if isinstance(b, PointBatch)
        ]
        path.unlink()
        return PointBatch.concat(batches)
