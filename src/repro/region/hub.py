"""The regional hub: N city dataports fanning into one store.

The paper's flagship scenario is an *ecosystem*: multiple city
deployments stream into shared storage that regional dashboards and
analytics consume.  :class:`RegionalHub` is that fan-in point.  Each
registered city gets a :class:`CityIngress` — a store-shaped enqueue
endpoint its dataport's ``BatchingTsdbWriter`` writes to — backed by a
bounded :class:`~repro.region.queue.AsyncBatchQueue`.  The hub drains
queues into the regional :class:`~repro.tsdb.TimeSeriesStore` on
scheduler ticks and enforces each city's retention
policy scoped to its ``city=<name>`` series.

Semantics are pinned to the direct path: the ingress preserves per-city
batch order and the store's last-write-wins merge is order-based within
one series, and a series belongs to exactly one city — so a fan-in run
produces *byte-identical* store contents to a single dataport ingesting
the same traffic (the equivalence suite in ``tests/test_region_hub.py``
asserts this at 4 cities).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

from ..simclock import Scheduler
from ..tsdb.batch import PointBatch
from ..tsdb.interface import TimeSeriesStore
from ..tsdb.model import SeriesKey
from ..tsdb.retention import RetentionReport
from .policy import CityPolicy
from .queue import AsyncBatchQueue, Backpressure


class CityIngress:
    """Store-shaped enqueue side of one city's fan-in lane.

    Quacks like the write surface of a :class:`TimeSeriesStore` (``put``
    / ``put_batch``), so the dataport's
    ``BatchingTsdbWriter`` — and any other producer — plugs in
    unchanged.  Every accepted series is namespaced to the city: keys
    missing a ``city`` tag gain ``city=<name>`` (keys that already carry
    one, e.g. stamped by the dataport, pass through untouched).

    Under ``block`` backpressure a refused batch is *stalled* here (in
    producer territory, outside the bounded queue) and retried on hub
    ticks, so nothing is ever lost and hop 4 never blocks.
    """

    def __init__(self, city: str, queue: AsyncBatchQueue) -> None:
        self.city = city
        self.queue = queue
        self._stalled: deque[PointBatch] = deque()
        self._stalled_points = 0
        self._stamp_cache: dict[SeriesKey, SeriesKey] = {}

    # -- write surface ---------------------------------------------------
    def put_batch(self, batch: PointBatch) -> int:
        """Enqueue a columnar batch; returns rows accepted (always all).

        Under ``block``, oversized batches split into capacity-sized
        slices before hitting the queue, so the bounded-depth invariant
        can be honoured by stalling regardless of producer burst size.
        The lossy policies take the batch whole: the queue's own
        oversized handling (trim-to-newest / spill wholesale) keeps
        strictly more of the newest data than slice-by-slice eviction
        would.
        """
        n = len(batch)
        if n == 0:
            return 0
        batch = self._stamp(batch)
        cap = self.queue.capacity
        if n > cap and self.queue.policy is Backpressure.BLOCK:
            for lo in range(0, n, cap):
                self._enqueue(batch.rows(lo, lo + cap))
        else:
            self._enqueue(batch)
        return n

    def put(self, metric, timestamp, value, tags=None) -> SeriesKey:
        batch = PointBatch.for_series(metric, [timestamp], [value], tags)
        self.put_batch(batch)
        return self._stamp_key(batch.keys[0])

    # -- backpressure ----------------------------------------------------
    @property
    def backpressured(self) -> bool:
        """True while refused batches are stalled upstream of the queue."""
        return bool(self._stalled)

    @property
    def stalled_points(self) -> int:
        return self._stalled_points

    def retry_stalled(self) -> int:
        """Re-offer stalled batches (oldest first); returns points moved."""
        moved = 0
        while self._stalled:
            if not self.queue.offer(self._stalled[0]):
                break
            batch = self._stalled.popleft()
            self._stalled_points -= len(batch)
            moved += len(batch)
        return moved

    def _enqueue(self, batch: PointBatch) -> None:
        # FIFO discipline: never let fresh data overtake stalled data.
        if self._stalled:
            self.retry_stalled()
        if self._stalled or not self.queue.offer(batch):
            self._stalled.append(batch)
            self._stalled_points += len(batch)

    # -- namespacing -----------------------------------------------------
    def _stamp(self, batch: PointBatch) -> PointBatch:
        if all(key.tag("city") is not None for key in batch.keys):
            return batch
        keys = tuple(self._stamp_key(key) for key in batch.keys)
        return PointBatch(keys, batch.key_idx, batch.timestamps, batch.values)

    def _stamp_key(self, key: SeriesKey) -> SeriesKey:
        if key.tag("city") is not None:
            return key
        stamped = self._stamp_cache.get(key)
        if stamped is None:
            tags = key.tag_dict()
            tags["city"] = self.city
            stamped = SeriesKey.make(key.metric, tags)
            self._stamp_cache[key] = stamped
        return stamped


@dataclass
class _CityLane:
    """Hub-internal state for one registered city."""

    policy: CityPolicy
    queue: AsyncBatchQueue
    ingress: CityIngress
    flushed_points: int = 0
    flushes: int = 0
    last_retention_at: int | None = None
    last_retention: RetentionReport | None = None
    retention_dropped: int = 0
    retention_rolled: int = 0


@dataclass
class HubStats:
    """Hub-level aggregate counters (points are rows)."""

    flushed_points: int = 0
    flushes: int = 0
    ticks: int = 0
    retention_runs: int = 0


class RegionalHub:
    """Absorbs N city lanes into one regional time-series store."""

    def __init__(
        self,
        store: TimeSeriesStore,
        scheduler: Scheduler,
        *,
        flush_interval_s: int = 60,
        spill_dir: str | Path | None = None,
    ) -> None:
        if flush_interval_s <= 0:
            raise ValueError("flush_interval_s must be positive")
        self.store = store
        self.scheduler = scheduler
        self.flush_interval_s = int(flush_interval_s)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.stats = HubStats()
        self._lanes: dict[str, _CityLane] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def cities(self) -> list[str]:
        """Registered city names, in registration order."""
        return list(self._lanes)

    def register_city(self, policy: CityPolicy) -> CityIngress:
        """Open a fan-in lane for a city; returns its enqueue endpoint."""
        if policy.city in self._lanes:
            raise ValueError(f"city {policy.city!r} already registered")
        spill_dir = None
        if policy.backpressure is Backpressure.SPILL:
            if self.spill_dir is None:
                raise ValueError(
                    "spill backpressure requires RegionalHub(spill_dir=...)"
                )
            spill_dir = self.spill_dir / policy.city
        queue = AsyncBatchQueue(
            policy.queue_capacity, policy.backpressure, spill_dir=spill_dir
        )
        ingress = CityIngress(policy.city, queue)
        self._lanes[policy.city] = _CityLane(policy, queue, ingress)
        return ingress

    def ingress(self, city: str) -> CityIngress:
        return self._lanes[city].ingress

    def queue(self, city: str) -> AsyncBatchQueue:
        return self._lanes[city].queue

    def policy(self, city: str) -> CityPolicy:
        return self._lanes[city].policy

    # ------------------------------------------------------------------
    # The simclock-driven pump
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the recurring flush/retention tick (idempotent)."""
        if self._started:
            return
        self._started = True
        self.scheduler.call_every(self.flush_interval_s, self._tick)

    def _tick(self, now: int) -> None:
        self.stats.ticks += 1
        self.pump(now=now)
        for lane in self._lanes.values():
            policy = lane.policy
            if policy.retention is None:
                continue
            due = (
                lane.last_retention_at is None
                or now - lane.last_retention_at >= policy.retention_interval_s
            )
            if due:
                self._enforce_lane_retention(lane, now)

    def pump(self, *, now: int | None = None) -> int:
        """One drain pass over every lane; returns points written."""
        return sum(
            self.pump_city(city, now=now) for city in self._lanes
        )

    def pump_city(
        self, city: str, *, now: int | None = None, limit: int | None = ...
    ) -> int:
        """Drain one lane into the regional store.

        ``limit`` defaults to the lane policy's ``max_flush_points``
        (the regional store's per-tick bandwidth for this city); pass
        ``None`` to drain without throttle.
        """
        lane = self._lanes[city]
        if limit is ...:
            limit = lane.policy.max_flush_points
        lane.ingress.retry_stalled()
        batch = lane.queue.drain(limit, now=now)
        if len(batch):
            self.store.put_batch(batch)
            lane.flushed_points += len(batch)
            lane.flushes += 1
            self.stats.flushed_points += len(batch)
            self.stats.flushes += 1
        # Freed capacity may unblock stalled producers immediately.
        lane.ingress.retry_stalled()
        return len(batch)

    def drain_all(self) -> int:
        """Flush every lane to empty, ignoring per-tick throttles.

        The shutdown/inspection path: after this, every accepted point
        is visible in the regional store and no lane is backpressured.
        """
        total = 0
        while True:
            moved = sum(
                self.pump_city(city, limit=None) for city in self._lanes
            )
            if moved == 0:
                break
            total += moved
        return total

    # ------------------------------------------------------------------
    # Per-city retention
    # ------------------------------------------------------------------
    def _enforce_lane_retention(
        self, lane: _CityLane, now: int
    ) -> RetentionReport:
        # Flush the lane first (throttle suspended): enforcing while
        # pre-cutoff stragglers sit in the queue would roll the stored
        # points now and the stragglers on the *next* pass, whose
        # re-rolled bucket would overwrite the correct average
        # (last-write-wins on the rollup series' bucket timestamps).
        city = lane.policy.city
        while lane.queue.backlog_points or lane.ingress.backpressured:
            if self.pump_city(city, now=now, limit=None) == 0:
                break
        report = lane.policy.retention.enforce(
            self.store, now, tags={"city": city}
        )
        lane.last_retention_at = int(now)
        lane.last_retention = report
        lane.retention_dropped += report.dropped_points
        lane.retention_rolled += report.rolled_points
        self.stats.retention_runs += 1
        return report

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def city_stats(self, city: str) -> dict:
        lane = self._lanes[city]
        q = lane.queue.stats
        return {
            "policy": lane.policy.backpressure.value,
            "queue_capacity": lane.queue.capacity,
            "queue_depth_points": lane.queue.depth_points,
            "spill_pending_points": lane.queue.spill_pending_points,
            "stalled_points": lane.ingress.stalled_points,
            "backpressured": lane.ingress.backpressured,
            "accepted_points": q.accepted_points,
            "dropped_points": q.dropped_points,
            "spilled_points": q.spilled_points,
            "drained_points": q.drained_points,
            "refused_offers": q.refused_offers,
            "high_watermark": q.high_watermark,
            "flushed_points": lane.flushed_points,
            "flushes": lane.flushes,
            "retention_dropped": lane.retention_dropped,
            "retention_rolled": lane.retention_rolled,
        }

    def stats_snapshot(self) -> dict:
        """Everything the regional dashboard panel renders."""
        return {
            "cities": {city: self.city_stats(city) for city in self._lanes},
            "hub": {
                "flushed_points": self.stats.flushed_points,
                "flushes": self.stats.flushes,
                "ticks": self.stats.ticks,
                "retention_runs": self.stats.retention_runs,
                "flush_interval_s": self.flush_interval_s,
            },
        }

    def __repr__(self) -> str:
        lanes = ",".join(
            f"{c}:{lane.queue.depth_points}" for c, lane in self._lanes.items()
        )
        return f"RegionalHub(cities=[{lanes}], flushed={self.stats.flushed_points})"
