"""Series catalog: inverted tag postings for O(result) series matching.

ROADMAP item 4.  At fleet scale (millions of series across 100+ cities)
query *matching* — not scanning — dominates planning: a ``node="*"`` or
``"a|b"`` filter used to linearly test every series under the metric.
The catalog keeps inverted postings per metric::

    metric -> tag key -> tag value -> series postings   (by_value)
    metric -> tag key -> series postings                (by_key)

maintained incrementally on every index/unindex path of
:class:`~repro.tsdb.database.TSDB`, so filter resolution is pure set
algebra over postings:

- exact values intersect their value postings (smallest first),
- ``"a|b"`` alternations union the alternative value postings,
- ``"*"`` intersects the has-key postings,

and :meth:`SeriesCatalog.match` only runs the full
:meth:`~repro.tsdb.model.SeriesKey.matches` predicate over the already
narrowed candidate set as a final exactness check.  Match output is
pinned to canonical (sorted key-string) order, so results are
deterministic and identical for a single store and any shard count.

The same postings answer the metadata API dashboards need for
autocomplete (:meth:`metrics`, :meth:`tag_keys`, :meth:`tag_values`)
and the :meth:`cardinality` counts behind guard-rails:
``SeriesCatalog(max_tag_values=N)`` rejects the write that would create
the (N+1)-th distinct value of one tag key under one metric with a
:class:`CardinalityLimitError` — *before* any state changes — so a
misbehaving ingester (a node id leaking a timestamp into a tag, say)
fails loudly instead of silently exploding the index.

:class:`MergedCatalog` is the read-only union view over the per-shard
catalogs of a :class:`~repro.tsdb.sharded.ShardedTSDB`: series are
disjoint across shards, so every answer is a merge of per-shard
answers, and :meth:`MergedCatalog.check_add` gives the routing layer a
store-wide guard check with single-store semantics (a per-shard limit
would admit up to N values *per shard*).

Catalog state is never persisted: it is a pure function of the live
series set, rebuilt deterministically by WAL/snapshot replay (text or
binary) through the same index/unindex hooks the live process used.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from .model import SeriesKey, validate_name

__all__ = ["CardinalityLimitError", "MergedCatalog", "SeriesCatalog"]


class CardinalityLimitError(ValueError):
    """A cardinality guard-rail tripped.

    Two flavours share the type (clients key on the wire error type):
    the ingest-side distinct tag-value limit
    (:meth:`for_tag_value` — the offending series is rejected
    atomically, store and catalog untouched) and the serving-side
    per-query match limit.  Either way the caller gets a loud,
    attributable in-band error instead of a silently degrading index.
    """

    def __init__(self, message: str, *, limit: int | None = None) -> None:
        super().__init__(message)
        self.limit = limit

    @classmethod
    def for_tag_value(
        cls, metric: str, tag_key: str, tag_value: str, limit: int
    ) -> "CardinalityLimitError":
        return cls(
            f"metric {metric!r} tag {tag_key!r}: value {tag_value!r} would "
            f"exceed the {limit} distinct-value limit",
            limit=limit,
        )


class _MetricIndex:
    """Postings of one metric; empty buckets are pruned on discard."""

    __slots__ = ("keys", "by_key", "by_value")

    def __init__(self) -> None:
        self.keys: set[SeriesKey] = set()
        # tag key -> postings of series carrying that key at all
        self.by_key: dict[str, set[SeriesKey]] = {}
        # tag key -> tag value -> postings of series with exactly that value
        self.by_value: dict[str, dict[str, set[SeriesKey]]] = {}


class SeriesCatalog:
    """Inverted tag index over one store's live series.

    Mutation (:meth:`add` / :meth:`discard`) is O(tags) per series and
    happens exactly when the owning store creates or drops a series, so
    the catalog is always a faithful index of the live series set —
    including after retention churn and WAL/snapshot replay.
    """

    def __init__(self, max_tag_values: int | None = None) -> None:
        if max_tag_values is not None and max_tag_values <= 0:
            raise ValueError("max_tag_values must be positive")
        self.max_tag_values = max_tag_values
        self._metrics: dict[str, _MetricIndex] = {}
        self._generation = 0
        # metric -> count of series created/removed under it.  Beside
        # the postings, not in them: a metric's index is pruned with its
        # last series, and a re-created metric must not repeat a value.
        self._metric_generations: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Maintenance (the store's index/unindex hooks)
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Counter of series added/removed anywhere in the catalog.

        The serving layer's validity signal for whole-catalog answers
        (``metrics()``): while it holds still, no metadata query result
        can have changed.
        """
        return self._generation

    def metric_generation(self, metric: str) -> int:
        """Counter of series added/removed under ``metric`` (monotonic,
        also across the metric being emptied and created again)."""
        return self._metric_generations.get(metric, 0)

    def __len__(self) -> int:
        return sum(len(idx.keys) for idx in self._metrics.values())

    def __contains__(self, key: SeriesKey) -> bool:
        idx = self._metrics.get(key.metric)
        return idx is not None and key in idx.keys

    def check_add(self, key: SeriesKey) -> None:
        """Raise :class:`CardinalityLimitError` if ``key`` would not fit.

        Pure check, no mutation — the atomicity half of :meth:`add`,
        also used standalone by routing layers that guard before
        dispatching to per-shard catalogs.
        """
        if self.max_tag_values is None:
            return
        idx = self._metrics.get(key.metric)
        for k, v in key.tags:
            values = idx.by_value.get(k) if idx is not None else None
            if values is not None and v in values:
                continue
            if len(values or ()) >= self.max_tag_values:
                raise CardinalityLimitError.for_tag_value(
                    key.metric, k, v, self.max_tag_values
                )

    def add(self, key: SeriesKey) -> None:
        """Index a newly created series (idempotent).

        Checks the cardinality guard over *all* tag pairs before
        touching any posting, so a rejected series leaves the catalog
        exactly as it was.
        """
        idx = self._metrics.get(key.metric)
        if idx is not None and key in idx.keys:
            return
        self.check_add(key)
        if idx is None:
            idx = self._metrics[key.metric] = _MetricIndex()
        idx.keys.add(key)
        for k, v in key.tags:
            idx.by_key.setdefault(k, set()).add(key)
            idx.by_value.setdefault(k, {}).setdefault(v, set()).add(key)
        self._generation += 1
        self._metric_generations[key.metric] += 1

    def discard(self, key: SeriesKey) -> None:
        """Unindex a dead series, pruning emptied postings (idempotent).

        Pruning matters under retention churn: a dead tag value frees
        its guard-rail slot, and empty buckets never linger to bloat
        the index or the metadata answers.
        """
        idx = self._metrics.get(key.metric)
        if idx is None or key not in idx.keys:
            return
        idx.keys.discard(key)
        for k, v in key.tags:
            bucket = idx.by_key.get(k)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del idx.by_key[k]
            values = idx.by_value.get(k)
            if values is not None:
                postings = values.get(v)
                if postings is not None:
                    postings.discard(key)
                    if not postings:
                        del values[v]
                if not values:
                    del idx.by_value[k]
        if not idx.keys:
            del self._metrics[key.metric]
        self._generation += 1
        self._metric_generations[key.metric] += 1

    # ------------------------------------------------------------------
    # Metadata API (the /api/suggest surface)
    # ------------------------------------------------------------------
    def metrics(self) -> list[str]:
        """All metrics with at least one live series, sorted."""
        return sorted(self._metrics)

    def tag_keys(self, metric: str) -> list[str]:
        """Tag keys appearing on any live series of ``metric``, sorted."""
        idx = self._metrics.get(metric)
        return sorted(idx.by_key) if idx is not None else []

    def tag_values(self, metric: str, tag_key: str) -> list[str]:
        """Distinct live values of one tag key under ``metric``, sorted."""
        validate_name(tag_key, "tag key")
        idx = self._metrics.get(metric)
        if idx is None:
            return []
        return sorted(idx.by_value.get(tag_key, ()))

    def series(self, metric: str) -> list[SeriesKey]:
        """All live series of ``metric`` in canonical (key string) order."""
        idx = self._metrics.get(metric)
        return sorted(idx.keys, key=str) if idx is not None else []

    def cardinality(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> int:
        """Number of live series matching ``(metric, tags)``.

        O(result) like :meth:`match` — the count dashboards and
        guard-rails ask for before committing to a scan.
        """
        if not tags:
            idx = self._metrics.get(metric)
            return len(idx.keys) if idx is not None else 0
        return len(self._match_set(metric, tags))

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _match_set(self, metric: str, tags: Mapping[str, str]) -> set[SeriesKey]:
        """Matching series as a set (postings algebra; order-free)."""
        idx = self._metrics.get(metric)
        if idx is None:
            return set()
        if not tags:
            return idx.keys
        # Resolve each filter to one postings set, cheapest check first
        # when intersecting: exact -> value postings, "a|b" -> union of
        # the alternatives' postings, "*" -> has-key postings.
        postings: list[set[SeriesKey]] = []
        for k, v in tags.items():
            if v == "*":
                p = idx.by_key.get(k)
            elif "|" in v:
                values = idx.by_value.get(k, {})
                parts = [values[alt] for alt in v.split("|") if alt in values]
                if not parts:
                    return set()
                p = set().union(*parts)
            else:
                p = idx.by_value.get(k, {}).get(v)
            if not p:
                return set()
            postings.append(p)
        postings.sort(key=len)
        result = postings[0]
        for p in postings[1:]:
            result = result & p
        # Final exactness check over the narrowed pool: the postings
        # algebra above is exact for the supported filter syntax, but
        # the predicate stays authoritative (and is O(result) here).
        return {key for key in result if key.matches(tags)}

    def match(self, metric: str, tags: Mapping[str, str]) -> list[SeriesKey]:
        """Series matching ``(metric, tags)`` in canonical sorted order.

        The store's ``_match`` resolves here: postings narrowing plus
        the ``matches`` exactness check, with output order pinned to
        the key string — deterministic, and identical across single and
        sharded stores for any shard count.
        """
        if not tags:
            return self.series(metric)
        return sorted(self._match_set(metric, tags), key=str)


class MergedCatalog:
    """Read-only union view over per-shard catalogs.

    Series hash-route to exactly one shard, so the per-shard answers
    are disjoint and every merged answer is a plain union — metadata
    queries and matching over a :class:`~repro.tsdb.sharded.ShardedTSDB`
    return byte-identical results to a single store holding the same
    series.  Carries the store-wide cardinality guard (the per-shard
    catalogs run unlimited; see :meth:`check_add`).
    """

    def __init__(
        self,
        parts: Sequence[SeriesCatalog],
        *,
        max_tag_values: int | None = None,
    ) -> None:
        if not parts:
            raise ValueError("MergedCatalog needs at least one part")
        if max_tag_values is not None and max_tag_values <= 0:
            raise ValueError("max_tag_values must be positive")
        self._parts = tuple(parts)
        self.max_tag_values = max_tag_values

    @property
    def generation(self) -> int:
        """Sum of the per-shard generations (monotonic, changes exactly
        when any shard's series set does)."""
        return sum(part.generation for part in self._parts)

    def metric_generation(self, metric: str) -> int:
        """Create/remove counter for a metric, summed over shards.

        Each shard's counter is monotonic, so the sum is monotonic and
        changes exactly when any shard's series set for the metric
        does — the same validity signal the single store provides.
        """
        return sum(part.metric_generation(metric) for part in self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __contains__(self, key: SeriesKey) -> bool:
        return any(key in part for part in self._parts)

    def check_add(self, key: SeriesKey) -> None:
        """Store-wide guard check for a series about to be routed.

        A value already live on *any* shard is always admissible; a new
        value counts against the union of distinct values across shards
        — exactly the single store's semantics, which a per-shard limit
        could not reproduce (each shard sees only its own value subset).
        """
        if self.max_tag_values is None:
            return
        for k, v in key.tags:
            distinct: set[str] = set()
            present = False
            for part in self._parts:
                idx = part._metrics.get(key.metric)
                values = idx.by_value.get(k) if idx is not None else None
                if values is None:
                    continue
                if v in values:
                    present = True
                    break
                distinct.update(values)
            if not present and len(distinct) >= self.max_tag_values:
                raise CardinalityLimitError.for_tag_value(
                    key.metric, k, v, self.max_tag_values
                )

    # ------------------------------------------------------------------
    # Metadata API (unions of disjoint per-shard answers)
    # ------------------------------------------------------------------
    def metrics(self) -> list[str]:
        return sorted(set().union(*(part._metrics.keys() for part in self._parts)))

    def tag_keys(self, metric: str) -> list[str]:
        keys: set[str] = set()
        for part in self._parts:
            keys.update(part.tag_keys(metric))
        return sorted(keys)

    def tag_values(self, metric: str, tag_key: str) -> list[str]:
        validate_name(tag_key, "tag key")
        values: set[str] = set()
        for part in self._parts:
            values.update(part.tag_values(metric, tag_key))
        return sorted(values)

    def series(self, metric: str) -> list[SeriesKey]:
        return _merge_sorted(part.series(metric) for part in self._parts)

    def cardinality(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> int:
        # Shards are disjoint: counts sum exactly.
        return sum(part.cardinality(metric, tags) for part in self._parts)

    def match(self, metric: str, tags: Mapping[str, str]) -> list[SeriesKey]:
        return _merge_sorted(part.match(metric, tags) for part in self._parts)


def _merge_sorted(parts: Iterable[list[SeriesKey]]) -> list[SeriesKey]:
    """Merge disjoint, individually sorted key lists into one sorted list.

    Timsort exploits the presorted runs, so this is close to a k-way
    merge without the bookkeeping.
    """
    merged: list[SeriesKey] = []
    for part in parts:
        merged.extend(part)
    merged.sort(key=str)
    return merged
