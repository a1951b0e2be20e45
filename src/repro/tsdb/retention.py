"""How data ages: one policy, one pass.

City archives grow without bound (the paper's archive runs from January
2017).  A :class:`RetentionPolicy` rolls raw data through zero or more
coarser resolution tiers, finest first, and then drops whatever has
outlived ``max_age`` at the coarsest resolution::

    RetentionPolicy.parse("1d:5m-avg:.5m", "30d:1h-avg:.1h", max_age="365d")

keeps raw points for a day, five-minute averages (``<metric>.5m``) for
a month, hour averages (``<metric>.1h``) for a year, and nothing older.
``RetentionPolicy(max_age=A)`` only drops; ``RetentionPolicy(tiers)``
only rolls.

Two deliberate choices:

- **Bucket-aligned cutoffs.**  Each tier's cutoff rounds *down* to its
  bucket width, so only complete buckets ever roll.  Rolling a partial
  bucket and deleting its raw points would make the next pass recompute
  that bucket from the surviving half — silently wrong averages.
- **Fine before coarse.**  Stages run raw→5m first, then 5m→1h, so a
  freshly produced 5m point that is already older than the 1h horizon
  cascades all the way down in a single pass.

A pass mutates the store it is handed and nothing else, through the
write protocol: one ``put_batch`` per stage that rolled something, and
one ``delete_series_before`` per series it drops from.  Durability and
replication are the store's business: hand the pass a
:class:`~repro.tsdb.tier.DurableStore` /
:class:`~repro.replication.ReplicatedStore` stack and every rollup and
deletion is journaled and shipped in the order it was applied.

Late-arriving raw points older than their tier cutoff land in raw, and
the next pass rolls them into a bucket that may already exist:
last-write-wins on the bucket timestamp replaces the earlier average
with one computed only from the stragglers.  The regional hub drains a
city's queue before enforcing, which keeps this from occurring there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .batch import BatchBuilder
from .downsample import Downsample, apply_many

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .interface import TimeSeriesStore


@dataclass(frozen=True)
class Tier:
    """One resolution stage of a :class:`RetentionPolicy`.

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
class RetentionReport:
    """What one :meth:`RetentionPolicy.enforce` pass did, per stage.

    Stage ``i`` is tier ``i`` (finest first), then the drop stage when
    the policy has a ``max_age``; ``cutoffs[i]`` is the horizon the
    stage enforced (bucket-aligned for a tier).
    """

    cutoffs: tuple[int, ...]
    rolled: tuple[int, ...]
    dropped: tuple[int, ...]

    @property
    def rolled_points(self) -> int:
        return sum(self.rolled)

    @property
    def dropped_points(self) -> int:
        return sum(self.dropped)


@dataclass(frozen=True)
class RetentionPolicy:
    """Roll through ``tiers`` (finest first), then drop past ``max_age``."""

    tiers: tuple[Tier, ...] = ()
    max_age: int | None = None

    def __post_init__(self) -> None:
        if not self.tiers and self.max_age is None:
            raise ValueError("a RetentionPolicy needs tiers, a max_age, or both")
        ages = [t.max_age for t in self.tiers]
        if self.max_age is not None:
            ages.append(self.max_age)
        if ages[0] <= 0 or any(a >= b for a, b in zip(ages, ages[1:])):
            raise ValueError(f"ages must be positive and strictly increase: {ages}")
        suffixes = [t.suffix for t in self.tiers]
        if len(set(suffixes)) != len(suffixes):
            raise ValueError(f"tier suffixes must be distinct: {suffixes}")

    @classmethod
    def parse(
        cls, *specs: str, max_age: int | str | None = None
    ) -> "RetentionPolicy":
        """Tiers from ``"<age>:<downsample>:<suffix>"`` specs; ``max_age``
        takes seconds or the same ``1d`` / ``2h`` forms."""
        return cls(
            tuple(Tier.parse(s) for s in specs),
            None if max_age is None else _parse_age(str(max_age)),
        )

    def _tier_of(self, metric: str) -> int:
        """Index of the tier whose suffix ``metric`` carries, or -1 for
        raw.  Longest-match so ``.5m`` never claims a ``.15m`` metric."""
        carried = [
            (len(tier.suffix), i)
            for i, tier in enumerate(self.tiers)
            if metric.endswith(tier.suffix)
        ]
        return max(carried, default=(0, -1))[1]

    def enforce(
        self,
        db: "TimeSeriesStore",
        now: int,
        *,
        tags: Mapping[str, str] | None = None,
    ) -> RetentionReport:
        """Run every stage once: each tier finest first, then the drop.

        A stage takes the series at its source resolution (raw for the
        first tier, the previous tier's after that, the coarsest for the
        drop) that ``tags`` matches — every series when ``tags`` is
        None — and that hold points before the stage's cutoff.  A tier
        rolls those points into its series in one ``put_batch``; then
        every stage deletes them, one ``delete_series_before`` per
        series.
        """
        # (source tier, target tier): -1 is raw, a None target drops.
        stages: list[tuple[int, Tier | None]] = [*enumerate(self.tiers, -1)]
        if self.max_age is not None:
            stages.append((len(self.tiers) - 1, None))
        cutoffs, rolled, dropped = [], [], []
        for source, tier in stages:
            if tier is None:
                cutoff = now - self.max_age
            else:
                # Complete buckets only: a bucket straddling the cutoff
                # stays at the finer resolution until it can never grow.
                width = tier.downsample.width
                cutoff = (now - tier.max_age) // width * width
            aged = []
            for metric in db.metrics():
                if self._tier_of(metric) != source:
                    continue
                for key in db.series_for_metric(metric):
                    if tags is None or key.matches(tags):
                        old = db.series_slice(key, end=cutoff - 1)
                        if len(old):
                            aged.append((key, old))
            n_rolled = 0
            if tier is not None and aged:
                base = len(self.tiers[source].suffix) if source >= 0 else 0
                builder = BatchBuilder()
                buckets = apply_many([old for _, old in aged], tier.downsample)
                for (key, _), rolled_up in zip(aged, buckets):
                    builder.add_series(
                        key.metric[: len(key.metric) - base] + tier.suffix,
                        rolled_up.timestamps,
                        rolled_up.values,
                        key.tag_dict(),
                    )
                batch = builder.build()
                db.put_batch(batch)
                n_rolled = len(batch)
            cutoffs.append(cutoff)
            rolled.append(n_rolled)
            dropped.append(
                sum(db.delete_series_before(key, cutoff) for key, _ in aged)
            )
        return RetentionReport(tuple(cutoffs), tuple(rolled), tuple(dropped))
