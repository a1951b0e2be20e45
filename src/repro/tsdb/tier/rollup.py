"""Age-based resolution tiers: raw → 5m → 1h as data gets old.

A single :class:`~repro.tsdb.retention.RetentionPolicy` rolls raw data
into *one* coarser metric before deleting it.  A :class:`TierPolicy`
chains that idea: each :class:`Tier` says how long data may stay at the
previous resolution before it is downsampled into this tier's series
and the finer points deleted, e.g.::

    TierPolicy.parse("1d:5m-avg:.5m", "30d:1h-avg:.1h")

keeps raw points for a day, five-minute averages (``<metric>.5m``) for
a month, and hour averages (``<metric>.1h``) forever.

Mechanics reuse the retention machinery wholesale: downsampling via
:func:`~repro.tsdb.downsample.apply`, per-series deletion through
``delete_series_before`` (shard-safe, scope-safe).  Like
:meth:`RetentionPolicy.enforce_scoped`, a pass mutates the store it is
handed and nothing else — so a store wrapped in
:class:`~repro.tsdb.tier.DurableStore` journals the tiering (a replayed
WAL reproduces the tiered state) and one wrapped in
:class:`~repro.replication.ReplicatedStore` replicates it to its
standby for free (the puts and scoped deletes *are* the write
protocol's vocabulary).

Two deliberate choices:

- **Bucket-aligned cutoffs.**  Each tier's cutoff rounds *down* to its
  bucket width, so only complete buckets ever roll.  Rolling a partial
  bucket and deleting its raw points would make the next pass recompute
  that bucket from the surviving half — silently wrong averages.
- **Fine before coarse.**  Stages run raw→5m first, then 5m→1h, so a
  freshly produced 5m point that is already older than the 1h horizon
  cascades all the way down in a single enforcement pass.

Late-arriving raw points older than their tier cutoff share the
pre-existing rollup limitation: they land in raw, and the next pass
rolls them into a bucket that may already exist — last-write-wins on
the bucket timestamp replaces the earlier average with one computed
only from the stragglers.  Upstream flushing (the regional hub drains
queues before enforcing) keeps this from occurring in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..downsample import Downsample, apply as apply_downsample
from ..model import SeriesKey
from ..retention import RolledUp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..interface import TimeSeriesStore

__all__ = ["Tier", "TierPolicy", "TierReport"]


@dataclass(frozen=True)
class Tier:
    """One resolution stage of a :class:`TierPolicy`.

    ``max_age`` is how long points may stay at the *previous* (finer)
    resolution; once older, they aggregate by ``downsample`` into
    ``<base metric><suffix>`` series carrying the same tags, and the
    finer points are deleted.
    """

    max_age: int
    downsample: Downsample
    suffix: str

    def __post_init__(self) -> None:
        if self.max_age <= 0:
            raise ValueError("max_age must be positive")
        if not self.suffix.startswith("."):
            raise ValueError(f"tier suffix must start with '.': {self.suffix!r}")

    @classmethod
    def parse(cls, spec: str) -> "Tier":
        """Parse ``"<max_age_s>:<downsample>:<suffix>"``, e.g.
        ``"86400:300s-avg:.5m"`` (age also accepts ``1d``/``2h`` forms)."""
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"bad tier spec {spec!r}; expected '<age>:<downsample>:<suffix>'"
            )
        age_s, ds_s, suffix = parts
        return cls(_parse_age(age_s), Downsample.parse(ds_s), suffix)


_AGE_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def _parse_age(text: str) -> int:
    text = text.strip().lower()
    if text and text[-1] in _AGE_UNITS:
        return int(text[:-1]) * _AGE_UNITS[text[-1]]
    return int(text)


@dataclass(frozen=True)
class TierReport:
    """Outcome of one :meth:`TierPolicy.enforce` pass."""

    stages: tuple[RolledUp, ...]

    @property
    def rolled_points(self) -> int:
        return sum(s.rolled_points for s in self.stages)

    @property
    def dropped_points(self) -> int:
        return sum(s.dropped_points for s in self.stages)


@dataclass(frozen=True)
class TierPolicy:
    """An ordered cascade of :class:`Tier` stages, finest first."""

    tiers: tuple[Tier, ...]

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a TierPolicy needs at least one tier")
        ages = [t.max_age for t in self.tiers]
        if ages != sorted(ages) or len(set(ages)) != len(ages):
            raise ValueError(f"tier max_ages must strictly increase: {ages}")
        suffixes = [t.suffix for t in self.tiers]
        if len(set(suffixes)) != len(suffixes):
            raise ValueError(f"tier suffixes must be distinct: {suffixes}")

    @classmethod
    def parse(cls, *specs: str) -> "TierPolicy":
        return cls(tuple(Tier.parse(s) for s in specs))

    def _tier_of(self, metric: str) -> int:
        """Index of the tier whose suffix ``metric`` carries, or -1 for
        raw.  Longest-match so ``.5m`` never claims a ``.15m`` metric."""
        best = -1
        best_len = 0
        for i, tier in enumerate(self.tiers):
            if metric.endswith(tier.suffix) and len(tier.suffix) > best_len:
                best = i
                best_len = len(tier.suffix)
        return best

    def enforce(
        self,
        db: "TimeSeriesStore",
        now: int,
        *,
        tags: Mapping[str, str] | None = None,
    ) -> TierReport:
        """Run every stage once, finest tier first.

        ``tags`` scopes the pass to matching series (the regional hub's
        per-city horizons).
        """
        stages: list[RolledUp] = []
        for stage_idx, tier in enumerate(self.tiers):
            source_tier = stage_idx - 1  # -1 = raw
            # Complete buckets only: a bucket straddling the cutoff
            # stays at the finer resolution until it can never grow.
            cutoff = ((now - tier.max_age) // tier.downsample.width) * (
                tier.downsample.width
            )
            rolled = 0
            dropped = 0
            for metric in list(db.metrics()):
                if self._tier_of(metric) != source_tier:
                    continue
                base = (
                    metric
                    if source_tier < 0
                    else metric[: -len(self.tiers[source_tier].suffix)]
                )
                target_metric = base + tier.suffix
                for key in list(db.series_for_metric(metric)):
                    if tags is not None and not key.matches(tags):
                        continue
                    old = db.series_slice(key, end=cutoff - 1)
                    if len(old) == 0:
                        continue
                    buckets = apply_downsample(old, tier.downsample)
                    target = SeriesKey.make(target_metric, key.tag_dict())
                    for ts, val in zip(
                        buckets.timestamps.tolist(), buckets.values.tolist()
                    ):
                        db.put(target.metric, int(ts), float(val), target.tag_dict())
                        rolled += 1
                    dropped += db.delete_series_before(key, cutoff)
            stages.append(
                RolledUp(dropped_points=dropped, rolled_points=rolled, cutoff=cutoff)
            )
        return TierReport(tuple(stages))
