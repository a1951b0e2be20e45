"""Query planning and batched execution: the v2 query engine.

The declarative surface (:class:`~repro.tsdb.query.Query`) is unchanged;
this module adds everything around it:

- :func:`run_batch` — the batched executor behind ``store.run_many``:
  deduplicates queries (:class:`Batch`) and dispatches to the store's
  execution hook;
- :func:`run_unique_batch` — the one executor behind that hook: each
  distinct filter is resolved once, each touched series is scanned once
  over its covering range, and every query runs :func:`execute_plan`
  over the shared scans.  A store supplies only how it resolves a
  filter — its catalog's kept :class:`~repro.tsdb.catalog.Resolution`:
  the matched keys, their groups, their column stores.  What a
  batch holds: the scans for its whole length — they are read-only
  views of the stores' columns
  (:meth:`~repro.tsdb.series.SeriesStore.scan`), nothing to free — and
  the alignments of **one filter at a time**: only queries with the
  same filter can share one, so the batch runs filter by filter and a
  filter's cells, masks and concatenations die before the next
  filter's are made.  A result owns its columns: where a plan would
  hand a scan through unchanged it is copied out, once;
- :func:`execute_plan` — the seed scan → rate → group-by → aggregate →
  downsample plan, in two stages: the per-instant fold over the
  :func:`~repro.tsdb.catalog.group_keys` partition
  (:func:`aggregate_across`), then
  :func:`downsampled` (one pass over the groups), which also buckets a
  window's instants trimmed at any later start exactly as a run over
  that sub-window would;
- :class:`ScanPlan` / :func:`align` — the physical helpers: one
  covering-range scan per touched series for a whole batch, one argsort
  alignment per group of slices (every point's column in the timestamp
  union; the aggregators fold the points, no series×instant matrix, and
  no NaN mask where no value is NaN — the alignment hands each column's
  point count over, see :mod:`~repro.tsdb.aggregators`).

The one-shot entry point, ``store.run``, is a thin shim over this
planner: a single query is just a batch of one.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import aggregators
from .catalog import Resolution
from .downsample import apply_many as downsample_many
from .model import SeriesKey
from .query import Query, QueryError, QueryResult, ResultSeries, compute_rate
from .series import SeriesSlice


def _empty_slice() -> SeriesSlice:
    return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))


# ---------------------------------------------------------------------------
# The logical plan, factored into reusable stages
# ---------------------------------------------------------------------------


def align(slices: list[SeriesSlice]) -> tuple[np.ndarray, aggregators.Cells]:
    """Align non-empty slices on the union of their timestamps.

    One stable argsort of the concatenated timestamps gives the sorted
    union (a dedup mask over the sorted run) and, scattered back through
    the permutation, every point's column in it — work proportional to
    the points, where a (series, instant) matrix costs series × union
    and is mostly NaN for feeds that never report on the same second.
    Points stay in slice order, which is the order the folds add in.
    """
    ts = np.concatenate([s.timestamps for s in slices])
    order = np.argsort(ts, kind="stable")
    merged = ts[order]
    first = np.empty(merged.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    all_ts = merged[starts]
    # Rank of each sorted point's instant (cumsum of an integer copy:
    # off the bool mask itself numpy runs its slow casting loop).
    rank = first.astype(np.intp)
    np.cumsum(rank, out=rank)
    col = np.empty(merged.shape[0], dtype=np.intp)
    col[order] = rank
    col -= 1
    return all_ts, aggregators.Cells(
        col,
        np.concatenate([s.values for s in slices]),
        # Each instant's run in the sorted union is its column's cells.
        aggregators.segment_lengths(starts, merged.shape[0]),
    )


def _aligned_for(
    slices: list[SeriesSlice], align_cache: dict | None
) -> tuple[np.ndarray, aggregators.Cells]:
    """:func:`align`, memoized per batch when a cache is given.

    Keys are slice identities; each entry pins its slices, so a freed
    slice's address can never be reused by an object that would collide
    with a live key (no false hits).  The cells keep what aggregators
    derive from them, so panels over the same slices share that too.
    """
    if align_cache is None:
        return align(slices)
    key = tuple(map(id, slices))
    entry = align_cache.get(key)
    if entry is None:
        entry = align_cache[key] = (list(slices), *align(slices))
    return entry[1], entry[2]


def aggregate_across(
    slices: list[SeriesSlice], name: str, *, align_cache: dict | None = None
) -> SeriesSlice:
    """Combine several series into one by aggregating per timestamp.

    Timestamps are the union of all input timestamps; at each instant the
    aggregator sees the values of every series that has a point exactly
    there, and nothing else: a series without a point at that second is
    absent from the fold, not interpolated.  Feeds are *not* aligned on
    a shared second — on the paper's own pipeline
    (``trondheim_deployment()``) every instant holds exactly one
    series — so a downsampled cross-series panel folds single points
    and then downsamples them.  (OpenTSDB downsamples each series first
    and interpolates across series; moving to that order is ROADMAP
    item 2, and this function does not attempt it.)

    ``name`` is a registered aggregator; it reduces the aligned points
    as :class:`~repro.tsdb.aggregators.Cells` — for the folds, bit for
    bit the fold down the series × instant matrix, which is never built.

    ``align_cache`` is the batched executor's cross-query win: queries
    in one batch that aggregate the *same* slice objects (a dashboard's
    ``avg`` and ``dev`` panels, or its ``median`` and ``p95``) share the
    alignment and what the aggregators derive from it, and differ only
    in the final reduction.  Keys are slice identities, so the cache is
    only valid while the batch holds its prepared slices — callers pass
    a dict that lives as long as the queries that can share do
    (:func:`run_unique_batch`: one filter).

    A lone series that is its own aggregate comes back as it went in —
    the scan's read-only view of the store, when that is what it was.
    """
    agg = aggregators.lookup(name)
    slices = [s for s in slices if len(s) > 0]
    if not slices:
        return _empty_slice()
    if len(slices) == 1 and agg.lone_is_itself:
        # Sound only where aggregating one series is the identity —
        # count (→ 1-where-finite) and dev (→ 0) take the full path, or
        # a group whose siblings fall away (rate on a 1-point series)
        # would return raw values instead.
        only = slices[0]
        if agg.adds_zero:
            return SeriesSlice(only.timestamps, only.values + 0.0)
        return only
    all_ts, cells = _aligned_for(slices, align_cache)
    return SeriesSlice(all_ts, agg.reduce(cells))


def _owned(column: np.ndarray) -> np.ndarray:
    return column if column.flags.writeable else column.copy()


def downsampled(query: Query, reduced: list[SeriesSlice]) -> list[SeriesSlice]:
    """The downsample stage of :func:`execute_plan`: the groups'
    instants bucketed over ``[query.start, query.end]`` in one pass —
    or, undownsampled, as columns the result owns."""
    if query.downsample is not None:
        return downsample_many(reduced, query.downsample, query.start, query.end)
    # A result owns its columns.  Undownsampled, a lone series is still
    # the scan's view of the store's (read-only marks it): kept in a
    # result cache it would pin the whole buffer.
    return [SeriesSlice(_owned(sl.timestamps), _owned(sl.values)) for sl in reduced]


def execute_plan(
    query: Query,
    groups: Sequence[tuple[tuple, Sequence[SeriesKey]]],
    scan: Callable[[SeriesKey], SeriesSlice],
    *,
    align_cache: dict | None = None,
) -> QueryResult:
    """The group-by → aggregate → downsample plan over scanned slices, in
    two stages: each group's fold across its series at every instant
    (rate applied), then :func:`downsampled`.  An instant's value reads
    only that instant's cells, so it is the same in any window that
    holds the instant.

    ``groups`` is :func:`~repro.tsdb.catalog.group_keys` of the series
    the query touches, under ``query.group_by``, and ``scan`` produces
    each one's time-sorted slice.  Groups form from the key set alone
    and slices always aggregate in sorted key order.
    """
    scanned = 0
    prepared: list[list[SeriesSlice]] = []
    for _, keys in groups:
        slices: list[SeriesSlice] = []
        for key in keys:
            sl = scan(key)
            scanned += len(sl)
            if query.rate:
                sl = compute_rate(sl)
            slices.append(sl)
        prepared.append(slices)
    reduced = [
        aggregate_across(slices, query.aggregator, align_cache=align_cache)
        for slices in prepared
    ]
    series_out = [
        ResultSeries(
            metric=query.metric,
            group_tags=dict(label),
            slice=combined,
            source_series=tuple(keys),
        )
        for (label, keys), combined in zip(groups, downsampled(query, reduced))
    ]
    if not series_out:
        series_out.append(ResultSeries(query.metric, {}, _empty_slice(), ()))
    return QueryResult(query=query, series=tuple(series_out), scanned_points=scanned)


# ---------------------------------------------------------------------------
# Physical helpers: shared scans, and the one executor over them
# ---------------------------------------------------------------------------


class ScanPlan:
    """One physical scan per touched series for a whole query batch.

    Queries register the ranges they need per key; ``resolve`` runs one
    covering-range scan per key; ``slice_for`` hands each query its
    sub-range.  Timestamps are strictly increasing, so the searchsorted
    sub-range of the covering scan is bit-identical to a direct
    ``scan(start, end)`` — sharing is invisible to results.
    """

    def __init__(self) -> None:
        self._ranges: dict[SeriesKey, list[int]] = {}
        self._scans: dict[SeriesKey, SeriesSlice] = {}
        self._subslices: dict[tuple[SeriesKey, int, int], SeriesSlice] = {}

    def need(self, key: SeriesKey, start: int, end: int) -> None:
        bounds = self._ranges.get(key)
        if bounds is None:
            self._ranges[key] = [start, end]
        else:
            bounds[0] = min(bounds[0], start)
            bounds[1] = max(bounds[1], end)

    @property
    def touched(self) -> int:
        return len(self._ranges)

    def resolve(
        self, scanner: Callable[[SeriesKey, int, int], SeriesSlice]
    ) -> None:
        for key, (lo, hi) in self._ranges.items():
            self._scans[key] = scanner(key, lo, hi)

    def slice_for(self, key: SeriesKey, start: int, end: int) -> SeriesSlice:
        """Sub-range of the covering scan; memoized so queries sharing a
        (key, range) see the *same* slice object (which is what lets the
        batch's alignment cache recognize shared aggregation work)."""
        sl = self._scans[key]
        lo, hi = self._ranges[key]
        if lo == start and hi == end:
            return sl
        memo_key = (key, start, end)
        sub = self._subslices.get(memo_key)
        if sub is None:
            sub = self._subslices[memo_key] = sl.between(start, end)
        return sub


def run_unique_batch(
    queries: Sequence[Query],
    resolve: Callable[[tuple], Resolution],
) -> list[QueryResult]:
    """Execute deduplicated queries over shared resolutions and scans.

    The executor behind every store's ``_run_unique_batch`` hook: each
    distinct filter (:attr:`Query.filter`) goes through ``resolve`` once — its
    keys, groups and column stores, kept by the catalog across batches
    — each touched series is scanned once over the covering range of
    every query that needs it, and panels aggregating the same slices
    share one alignment.  Results align with ``queries``.

    The scans are views and cost nothing to hold for the whole batch;
    an alignment is as large as the points it aligns, and only queries
    with the same filter can share one.  So the batch runs one filter
    at a time, in order of first appearance, and each filter's
    alignments are dropped before the next one's are made.
    """
    by_filter: dict[tuple, list[int]] = {}
    for i, q in enumerate(queries):
        by_filter.setdefault(q.filter, []).append(i)
    scans = ScanPlan()
    stores: dict = {}  # series key -> its column store (None: absent)
    resolved: list[Resolution] = []
    for members in by_filter.values():
        first = queries[members[0]]
        r = resolve(first.filter)
        resolved.append(r)
        lo = min(queries[i].start for i in members)
        hi = max(queries[i].end for i in members)
        for key, store in zip(r.keys, r.stores):
            stores[key] = store
            scans.need(key, lo, hi)

    def scan(key: SeriesKey, lo: int, hi: int) -> SeriesSlice:
        store = stores[key]
        return _empty_slice() if store is None else store.scan(lo, hi)

    scans.resolve(scan)
    results: list[QueryResult | None] = [None] * len(queries)
    for r, members in zip(resolved, by_filter.values()):
        align_cache: dict = {}  # the previous filter's dies here
        for i in members:
            q = queries[i]
            results[i] = execute_plan(
                q,
                r.groups(q.group_by),
                lambda key, q=q: scans.slice_for(key, q.start, q.end),
                align_cache=align_cache,
            )
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The batched executor behind store.run_many
# ---------------------------------------------------------------------------


class Batch:
    """One ``run_many`` request, deduplicated: the distinct queries to
    execute, and how to assemble the request's results from theirs.
    Two queries are one when they are equal (:class:`Query` normalizes
    its spelling)."""

    __slots__ = ("queries", "_specs")

    def __init__(self, items: Sequence[Query]) -> None:
        self.queries: list[Query] = []
        self._specs: list[tuple[Query, int]] = []
        index: dict[Query, int] = {}
        for item in items:
            if not isinstance(item, Query):
                raise QueryError(
                    f"run_many items must be Query; got {type(item).__name__}"
                )
            i = index.get(item)
            if i is None:
                i = index[item] = len(self.queries)
                self.queries.append(item)
            self._specs.append((item, i))

    def assemble(self, results: Sequence[QueryResult]) -> list[QueryResult]:
        """The request's results, in its order, from those of
        :attr:`queries`: each re-wrapped around the request's own query."""
        out: list[QueryResult] = []
        for item, i in self._specs:
            res = results[i]
            if res.query is not item:
                res = QueryResult(item, res.series, res.scanned_points)
            out.append(res)
        return out


def run_batch(store: object, queries: Sequence[Query]) -> list[QueryResult]:
    """Plan and execute a batch of queries together.

    Duplicate queries execute once (:class:`Batch`).  Execution goes
    through the store's ``_run_unique_batch`` hook —
    :func:`run_unique_batch` on :class:`~repro.tsdb.database.TSDB`, the
    result cache on the serving wrappers.  Results align with the input
    order.
    """
    batch = Batch(queries)
    return batch.assemble(store._run_unique_batch(batch.queries))
