"""Series catalog: inverted tag postings for O(result) series matching.

At fleet scale (millions of series across 100+ cities) query
*matching* — not scanning — dominates planning: a ``node="*"`` or
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
deterministic.

The same postings answer the metadata API dashboards need for
autocomplete (:meth:`metrics`, :meth:`tag_keys`, :meth:`tag_values`)
and the :meth:`cardinality` counts behind guard-rails:
``SeriesCatalog(max_tag_values=N)`` rejects the write that would create
the (N+1)-th distinct value of one tag key under one metric with a
:class:`CardinalityLimitError` — *before* any state changes — so a
misbehaving ingester (a node id leaking a timestamp into a tag, say)
fails loudly instead of silently exploding the index.

The catalog also keeps what a read needs of one filter, resolved once
per series set (:meth:`SeriesCatalog.resolve`): a :class:`Resolution`
holds the matched keys, their group-by partitions and — filled in by
the store, through its ``_series`` — their column stores.  It is
validated by the metric's generation, read before matching, so a
dashboard that re-asks the same filters between series creations
matches and groups each of them once, not once per panel per request.

Catalog state is never persisted: it is a pure function of the live
series set, rebuilt deterministically by WAL/snapshot replay through
the same index/unindex hooks the live process used.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .model import SeriesKey, validate_name

__all__ = [
    "BoundedLRU",
    "CardinalityLimitError",
    "Grouping",
    "MetricCounters",
    "Resolution",
    "SeriesCatalog",
    "group_keys",
]

#: How many filters' resolutions a catalog keeps: a constant, like the
#: serving store's panel table, and far more than one dashboard wall names.
RESOLUTIONS = 256


class BoundedLRU(OrderedDict):
    """A mapping that forgets its least recently used key past
    ``capacity`` — the one LRU body under the catalogs' resolutions,
    the result caches, the serving store's panel table and the client's
    held replies."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__()
        self.capacity = int(capacity)

    def use(self, key):
        """The value under ``key``, now the most recently used; None
        when absent.  A miss raises nothing: on a dashboard whose
        window moves, every look-up misses."""
        value = self.get(key)
        if value is not None:
            try:
                self.move_to_end(key)
            except KeyError:  # dropped by another thread meanwhile
                pass
        return value

    def put(self, key, value) -> int:
        """Set ``key`` as the most recently used; returns how many
        older keys were evicted to make room."""
        self.pop(key, None)  # re-inserted at the recent end
        self[key] = value
        evicted = 0
        while len(self) > self.capacity:
            self.popitem(last=False)
            evicted += 1
        return evicted


def group_keys(
    group_by: Sequence[str], keys: Iterable[SeriesKey]
) -> list[tuple[tuple[tuple[str, str], ...], tuple[SeriesKey, ...]]]:
    """Partition keys into group-by labels: ``(label, keys)`` pairs in
    label order, the keys sorted per group.

    A pure function of the key set — independent of the order ``keys``
    arrive in.
    """
    names = sorted(group_by)
    groups: dict[tuple, list[SeriesKey]] = defaultdict(list)
    for key in keys:
        groups[tuple((g, key.tag(g, "")) for g in names)].append(key)
    return sorted(
        (label, tuple(sorted(members, key=str))) for label, members in groups.items()
    )


class Grouping:
    """One ``group_by``'s partition of a resolution's keys: ``groups``
    is :func:`group_keys` of them — ``(label, keys)`` pairs — and where
    those keys sit among the resolution's: ``order`` lists their
    positions group after group, group ``i`` holding
    ``order[bounds[i]:bounds[i + 1]]``.

    A planner's block lays the resolution's series out in key order, so
    with these it regroups the block's runs in one gather — none at all
    when ``in_key_order`` — and finds a group's runs between two bounds.
    """

    __slots__ = ("group_by", "groups", "order", "bounds", "in_key_order")

    def __init__(self, group_by: tuple[str, ...], keys: Sequence[SeriesKey]) -> None:
        self.group_by = group_by
        self.groups = group_keys(group_by, keys)
        position = {key: i for i, key in enumerate(keys)}
        self.order = np.fromiter(
            (position[key] for _, members in self.groups for key in members),
            dtype=np.intp,
            count=len(keys),
        )
        self.bounds = np.zeros(len(self.groups) + 1, dtype=np.intp)
        np.cumsum([len(members) for _, members in self.groups], out=self.bounds[1:])
        self.in_key_order = bool((self.order == np.arange(len(keys))).all())


class Resolution:
    """One filter resolved under one series set: the matched ``keys``
    in canonical order, their :class:`Grouping` per ``group_by`` (made
    on first ask) and their column ``stores``.

    A catalog keeps it while the metric's generation reads
    ``generation``: no series was created or removed under the metric,
    so the keys, their groups and each key's store are all still
    those.  ``stores`` is None until a store resolved them
    (:meth:`with_stores`).
    """

    __slots__ = ("generation", "keys", "stores", "_groups")

    def __init__(
        self,
        generation: int,
        keys: tuple[SeriesKey, ...],
        stores: tuple | None = None,
        groups: dict | None = None,
    ) -> None:
        self.generation = generation
        self.keys = keys
        self.stores = stores
        self._groups: dict = {} if groups is None else groups

    def groups(self, group_by: Sequence[str]) -> Grouping:
        """The :class:`Grouping` of the keys under ``group_by``, made
        once."""
        group_by = tuple(group_by)
        grouping = self._groups.get(group_by)
        if grouping is None:
            grouping = self._groups[group_by] = Grouping(group_by, self.keys)
        return grouping

    def with_stores(self, lookup: Callable) -> "Resolution":
        """This resolution with every key's column store, looked up
        through ``lookup`` (a store's ``_series``) once and kept.

        An absent store is never kept: ``TSDB._store_for`` indexes a
        key before it stores it, so a reader can match a key whose
        store does not exist yet, and no later series creation would
        move the generation that keeps a None.  Such a look-up is
        answered by a copy that only this caller holds.
        """
        if self.stores is not None:
            return self
        stores = tuple(map(lookup, self.keys))
        if None in stores:
            return Resolution(self.generation, self.keys, stores, self._groups)
        self.stores = stores
        return self


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


class MetricCounters:
    """The two mutation counters of one metric, shared by the catalog
    and every :class:`~repro.tsdb.series.SeriesStore` of the metric.

    - ``writes`` moves on every mutation of any series of the metric and
      on every series created or removed under it;
    - ``reshapes`` moves on every mutation that is not a pure append
      (out-of-order or duplicate write, retention delete) and on every
      create or remove.

    A series store bumps them where it bumps its own ``generation`` /
    ``reshape_generation`` — before its columns change — so "the metric
    counter held still" implies "every series counter under it held
    still", and a validator may stop there.  Like the series counters
    they move beside, they are bumped by one writer at a time (in the
    store stack, under the journal's lock).
    """

    __slots__ = ("writes", "reshapes")

    def __init__(self) -> None:
        self.writes = 0
        self.reshapes = 0


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
        # metric -> count of series created/removed under it, and the
        # metric's write / reshape counters.  Beside the postings, not
        # in them: a metric's index is pruned with its last series, and
        # a re-created metric must not repeat a value.
        self._metric_generations: dict[str, int] = defaultdict(int)
        self._metric_counters: dict[str, MetricCounters] = {}
        self._resolutions: BoundedLRU = BoundedLRU(RESOLUTIONS)

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

    def metric_counters(self, metric: str) -> MetricCounters:
        """The counter cell of ``metric`` (made on first ask, never
        pruned): what the owning store hands each new series store."""
        counters = self._metric_counters.get(metric)
        if counters is None:
            counters = self._metric_counters[metric] = MetricCounters()
        return counters

    def metric_write_generation(self, metric: str) -> int:
        """``metric``'s :attr:`MetricCounters.writes`; 0 if never seen."""
        counters = self._metric_counters.get(metric)
        return 0 if counters is None else counters.writes

    def metric_reshape_generation(self, metric: str) -> int:
        """``metric``'s :attr:`MetricCounters.reshapes`; 0 if never seen."""
        counters = self._metric_counters.get(metric)
        return 0 if counters is None else counters.reshapes

    def _bump(self, metric: str) -> None:
        """A series was created or removed under ``metric``."""
        self._generation += 1
        self._metric_generations[metric] += 1
        counters = self.metric_counters(metric)
        counters.writes += 1
        counters.reshapes += 1

    def __len__(self) -> int:
        return sum(len(idx.keys) for idx in self._metrics.values())

    def __contains__(self, key: SeriesKey) -> bool:
        idx = self._metrics.get(key.metric)
        return idx is not None and key in idx.keys

    def add(self, key: SeriesKey) -> None:
        """Index a newly created series (idempotent).

        Checks the cardinality guard over *all* tag pairs before
        touching any posting, so a rejected series leaves the catalog
        exactly as it was.
        """
        idx = self._metrics.get(key.metric)
        if idx is not None and key in idx.keys:
            return
        if self.max_tag_values is not None:
            for k, v in key.tags:
                values = idx.by_value.get(k, ()) if idx is not None else ()
                if v not in values and len(values) >= self.max_tag_values:
                    raise CardinalityLimitError.for_tag_value(
                        key.metric, k, v, self.max_tag_values
                    )
        if idx is None:
            idx = self._metrics[key.metric] = _MetricIndex()
        idx.keys.add(key)
        for k, v in key.tags:
            idx.by_key.setdefault(k, set()).add(key)
            idx.by_value.setdefault(k, {}).setdefault(v, set()).add(key)
        self._bump(key.metric)

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
        self._bump(key.metric)

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
        the key string — deterministic whatever the sets' order.
        """
        if not tags:
            return self.series(metric)
        return sorted(self._match_set(metric, tags), key=str)

    def resolve(self, filter_: tuple) -> Resolution:
        """:meth:`match` of one filter — a
        :attr:`~repro.tsdb.query.Query.filter`, ``(metric, sorted tag
        pairs)`` — as a :class:`Resolution`, kept for the
        :data:`RESOLUTIONS` most recently resolved filters and reused
        while the metric's generation holds still.

        The generation is read *before* matching: a series created or
        removed while the match runs moves it past the value the entry
        keeps, so the next resolution matches again.
        """
        metric, pairs = filter_
        generation = self.metric_generation(metric)
        entry = self._resolutions.use(filter_)
        if entry is None or entry.generation != generation:
            entry = Resolution(generation, tuple(self.match(metric, dict(pairs))))
            self._resolutions.put(filter_, entry)
        return entry
