"""Retention and rollup policies.

City archives grow without bound (the paper's archive runs from January
2017).  A :class:`RetentionPolicy` bounds raw-data age, optionally rolling
old raw points up into a coarser metric before deletion so long-horizon
dashboards stay cheap.

Two scoped variants serve the multi-city / sharded deployments:

- :meth:`RetentionPolicy.enforce_scoped` limits a pass to series
  matching a tag filter (the regional hub's per-city horizons, scoped
  to ``city=<name>``);
- :class:`PerShardRetention` applies a distinct policy per shard of a
  :class:`~repro.tsdb.sharded.ShardedTSDB`.

A pass mutates the store it is handed and nothing else, through the
write protocol (``put`` for rollups, ``delete_before`` /
``delete_series_before`` for drops).  Durability and replication are
the store's business: hand the pass a
:class:`~repro.tsdb.tier.DurableStore` /
:class:`~repro.replication.ReplicatedStore` stack and every rollup and
deletion is journaled and shipped in the order it was applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from .downsample import Downsample, apply as apply_downsample
from .model import SeriesKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .interface import TimeSeriesStore
    from .sharded import ShardedTSDB


@dataclass(frozen=True)
class RolledUp:
    """Outcome of one enforcement pass."""

    dropped_points: int
    rolled_points: int
    cutoff: int


@dataclass(frozen=True)
class RetentionPolicy:
    """Keep raw points for ``raw_max_age`` seconds.

    When ``rollup`` is set (e.g. ``Downsample.parse("1h-avg")``), points
    older than the cutoff are first aggregated into
    ``<metric><rollup_suffix>`` series carrying the same tags, then the
    raw points are deleted.
    """

    raw_max_age: int
    rollup: Downsample | None = None
    rollup_suffix: str = ".rollup"

    def __post_init__(self) -> None:
        if self.raw_max_age <= 0:
            raise ValueError("raw_max_age must be positive")

    def enforce(self, db: "TimeSeriesStore", now: int) -> RolledUp:
        """Apply the policy; returns what was rolled and dropped."""
        cutoff = now - self.raw_max_age
        rolled = 0
        exclude = None
        if self.rollup is not None:
            rolled = self._roll_old_points(db, cutoff)
            exclude = self.rollup_suffix
        dropped = db.delete_before(cutoff, exclude_suffix=exclude)
        return RolledUp(dropped_points=dropped, rolled_points=rolled, cutoff=cutoff)

    def enforce_scoped(
        self, db: "TimeSeriesStore", now: int, tags: Mapping[str, str]
    ) -> RolledUp:
        """Apply the policy to series matching ``tags`` only.

        Same semantics as :meth:`enforce` restricted to the matching
        series (tag filters support the query syntax: exact, ``*``,
        ``a|b``).  Deletion goes series-by-series through
        ``delete_series_before``, so other tenants of the same store —
        other cities, shared external feeds — are untouched.
        """
        return self._enforce_selected(
            db,
            now,
            lambda key: key.matches(tags),
            self.rollup_suffix if self.rollup is not None else None,
        )

    def _enforce_selected(
        self,
        db: "TimeSeriesStore",
        now: int,
        selected: Callable[[SeriesKey], bool],
        exclude: str | None,
    ) -> RolledUp:
        """One pass over the series ``selected`` picks: roll, then drop
        through ``delete_series_before``, sparing ``exclude``-suffixed
        metrics.  Every mutation is a write primitive of ``db`` itself,
        so whatever wraps it (journal, replication log) sees the pass.
        """
        cutoff = now - self.raw_max_age
        rolled = 0
        if self.rollup is not None:
            rolled = self._roll_old_points(db, cutoff, selected)
        dropped = 0
        for metric in list(db.metrics()):
            if exclude is not None and metric.endswith(exclude):
                continue
            for key in list(db.series_for_metric(metric)):
                if selected(key):
                    dropped += db.delete_series_before(key, cutoff)
        return RolledUp(dropped_points=dropped, rolled_points=rolled, cutoff=cutoff)

    def _roll_old_points(
        self,
        db: "TimeSeriesStore",
        cutoff: int,
        selected: Callable[[SeriesKey], bool] | None = None,
    ) -> int:
        """Aggregate pre-cutoff raw points into rollup series;
        ``selected`` restricts the pass to the series it picks."""
        assert self.rollup is not None
        rolled = 0
        # Materialize the key list first: we add rollup series while iterating.
        for metric in list(db.metrics()):
            if metric.endswith(self.rollup_suffix):
                continue  # never roll a rollup
            for key in list(db.series_for_metric(metric)):
                if selected is not None and not selected(key):
                    continue
                old = db.series_slice(key, end=cutoff - 1)
                if len(old) == 0:
                    continue
                buckets = apply_downsample(old, self.rollup)
                target = SeriesKey.make(metric + self.rollup_suffix, key.tag_dict())
                for ts, val in zip(
                    buckets.timestamps.tolist(), buckets.values.tolist()
                ):
                    db.put(target.metric, int(ts), float(val), target.tag_dict())
                    rolled += 1
        return rolled


@dataclass(frozen=True)
class PerShardRetention:
    """Distinct retention horizons per shard of a sharded store.

    ``policies[i]`` governs shard ``i`` (None = shard exempt): the
    series whose key hash-routes there.  The pass runs on the store it
    is handed — a :class:`~repro.tsdb.sharded.ShardedTSDB` or any
    wrapper stack over one — through ``put`` and
    ``delete_series_before``, so a rollup series lands in whichever
    shard its key routes to (exactly where queries will look for it)
    and a journal or replication log around the store records the pass.
    """

    policies: tuple["RetentionPolicy | None", ...]

    def enforce(
        self, db: "ShardedTSDB", now: int
    ) -> tuple[RolledUp | None, ...]:
        if len(self.policies) != db.num_shards:
            raise ValueError(
                f"{len(self.policies)} policies for {db.num_shards} shards"
            )
        # Rollup series are *regional* state: a rollup written while
        # enforcing shard i hash-routes to whichever shard owns its key,
        # so every shard's delete pass must spare the suffix — not just
        # the shards whose own policy rolls up (otherwise shard j's
        # plain delete destroys shard i's freshly rolled history).
        suffixes = {
            p.rollup_suffix
            for p in self.policies
            if p is not None and p.rollup is not None
        }
        if len(suffixes) > 1:
            raise ValueError(
                f"mixed rollup suffixes across shard policies: {sorted(suffixes)}"
            )
        exclude = next(iter(suffixes), None)
        shard_of = db.shard_of  # resolved once: ``db`` may be a wrapper stack
        return tuple(
            None
            if policy is None
            else policy._enforce_selected(
                db, now, lambda key, i=i: shard_of(key) == i, exclude
            )
            for i, policy in enumerate(self.policies)
        )
