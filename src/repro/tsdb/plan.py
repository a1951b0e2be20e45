"""Query planning and batched execution: the v2 query engine.

The declarative surface (:class:`~repro.tsdb.query.Query`) is unchanged;
this module adds everything around it:

- :func:`run_batch` — the batched executor behind ``store.run_many``:
  deduplicates queries (:class:`Batch`) and dispatches to the store's
  execution hook;
- :func:`run_unique_batch` — the one executor behind that hook.  Each
  distinct filter is resolved once — its catalog's kept
  :class:`~repro.tsdb.catalog.Resolution`: the matched keys, their
  groupings, their column stores — and its matched series are scanned
  once per run of overlapping windows of its queries, over that run's
  union, and laid end to end, in key order, as one :class:`Block`.
  Each distinct window of the filter is that block, or that block cut
  in one pass over its points, and every query of the filter and window
  folds from that one block (:func:`execute_plan`): the work is numpy
  over the points, not Python per series.  What a batch holds: the
  blocks of **one filter at a time** and what its queries derive from
  them — rates, regroupings and alignments — all dropped before the
  next filter's blocks are made;
- :func:`execute_plan` — the seed scan → rate → group-by → aggregate →
  downsample plan over one block, in two stages: each group's fold
  across its series at every instant (:func:`aggregate_across`), then
  :func:`downsampled` (one pass over the groups laid end to end), which
  also buckets a window's instants trimmed at any later start exactly
  as a run over that sub-window would;
- :func:`align` — the physical fold helper: one argsort alignment of a
  group's points (every point's column in the timestamp union; the
  aggregators fold the points, no series×instant matrix, and no NaN
  mask where no value is NaN — the alignment hands each column's point
  count over, see :mod:`~repro.tsdb.aggregators`).

A block's columns are read-only and no result is a view of one: a
result owns its columns.  The one-shot entry point, ``store.run``, is a
thin shim over this planner: a single query is just a batch of one.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from . import aggregators
from .catalog import Grouping, Resolution
from .downsample import apply_block
from .query import Query, QueryError, QueryResult, ResultSeries
from .series import SeriesSlice


def _empty_slice() -> SeriesSlice:
    return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))


def _offsets(lengths) -> np.ndarray:
    """The bounds of runs of ``lengths`` laid end to end."""
    return np.fromiter(
        accumulate(lengths, initial=0), dtype=np.intp, count=len(lengths) + 1
    )


# ---------------------------------------------------------------------------
# The physical layout: series laid end to end
# ---------------------------------------------------------------------------


class Block:
    """Time-sorted runs laid end to end: run ``i`` is
    ``timestamps[bounds[i]:bounds[i + 1]]``, with ``values`` beside.

    The planner's block is a filter's matched series over one window,
    run ``i`` the points of the filter's key ``i``.  Its columns are
    read-only.  What the queries of one filter and window derive from
    it — its runs in a grouping's order, a group's runs, the rates, the
    alignment — is kept on the block the first time it is made, so
    queries share it for as long as the block lives: one filter of one
    batch.
    """

    __slots__ = ("timestamps", "values", "bounds", "_kept")

    def __init__(
        self, timestamps: np.ndarray, values: np.ndarray, bounds: np.ndarray
    ) -> None:
        timestamps.setflags(write=False)
        values.setflags(write=False)
        self.timestamps = timestamps
        self.values = values
        self.bounds = bounds
        self._kept: dict = {}

    @classmethod
    def of(cls, slices: Sequence[SeriesSlice]) -> "Block":
        """``slices`` laid end to end, one run each: copied once, or, for
        one slice, its own columns."""
        if len(slices) <= 1:
            lone = slices[0] if slices else _empty_slice()
            return cls(lone.timestamps, lone.values, _offsets([len(lone)] * len(slices)))
        return cls(
            np.concatenate([s.timestamps for s in slices]),
            np.concatenate([s.values for s in slices]),
            _offsets([len(s) for s in slices]),
        )

    @classmethod
    def scan(cls, stores: Sequence, start: int, end: int) -> "Block":
        """Each column store scanned once over ``[start, end]`` (an
        absent store, None, is an empty run)."""
        return cls.of([
            _empty_slice() if store is None else store.scan(start, end)
            for store in stores
        ])

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def between(self, start: int, end: int) -> "Block":
        """Every run's points with ``start <= t <= end``, in one pass
        over the points.  A run is sorted, so what stays of it is the
        scan of its series over ``[start, end]``."""
        ts = self.timestamps
        inside = ts >= start
        inside &= ts <= end
        before = np.zeros(ts.shape[0] + 1, dtype=np.intp)
        np.cumsum(inside, out=before[1:])
        return Block(ts[inside], self.values[inside], before[self.bounds])

    def rated(self) -> "Block":
        """Every run's per-second first derivative, in one pass — each
        run's :func:`~repro.tsdb.query.compute_rate`: a point per pair
        of consecutive points of one run, at the later one's instant, a
        negative rate (a counter reset) 0."""
        rated = self._kept.get("rate")
        if rated is None:
            ts, bounds = self.timestamps, self.bounds
            n = ts.shape[0]
            pair = np.ones(max(n - 1, 0), dtype=bool)  # (j, j + 1) in one run
            cuts = bounds[1:-1]
            pair[cuts[(cuts > 0) & (cuts < n)] - 1] = False
            dt = np.diff(ts).astype(np.float64)
            rate = np.diff(self.values)[pair] / dt[pair]
            rated = self._kept["rate"] = Block(
                ts[1:][pair],
                np.where(rate < 0, 0.0, rate),
                _offsets(np.maximum(np.diff(bounds) - 1, 0)),
            )
        return rated

    def grouped(self, grouping: Grouping) -> "Block":
        """The runs in ``grouping``'s order — group after group, a
        group's in key order: this block, when that is its order."""
        if grouping.in_key_order:
            return self
        key = ("grouped", grouping.group_by)
        block = self._kept.get(key)
        if block is None:
            starts = self.bounds[grouping.order]
            lengths = self.bounds[grouping.order + 1] - starts
            bounds = _offsets(lengths)
            at = np.repeat(starts - bounds[:-1], lengths)
            at += np.arange(bounds[-1])
            block = self._kept[key] = Block(
                self.timestamps[at], self.values[at], bounds
            )
        return block

    def runs(self, i: int, j: int) -> "Block":
        """Runs ``i`` to ``j - 1`` as a block of their own, a view: this
        block, when they are all of its runs."""
        if i == 0 and j == self.bounds.shape[0] - 1:
            return self
        key = ("runs", i, j)
        block = self._kept.get(key)
        if block is None:
            a, b = self.bounds[i], self.bounds[j]
            block = self._kept[key] = Block(
                self.timestamps[a:b], self.values[a:b], self.bounds[i:j + 1] - a
            )
        return block

    def aligned(self) -> tuple[np.ndarray, aggregators.Cells]:
        """:func:`align` of the block's points, made once."""
        aligned = self._kept.get("aligned")
        if aligned is None:
            aligned = self._kept["aligned"] = align(self.timestamps, self.values)
        return aligned


# ---------------------------------------------------------------------------
# The logical plan, factored into reusable stages
# ---------------------------------------------------------------------------


def align(
    timestamps: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, aggregators.Cells]:
    """Align runs of points laid end to end — a :class:`Block`'s
    columns — on the union of their timestamps.

    One stable argsort of the timestamps gives the sorted union (a dedup
    mask over the sorted run) and, scattered back through the
    permutation, every point's column in it — work proportional to the
    points, where a (series, instant) matrix costs series × union and is
    mostly NaN for feeds that never report on the same second.  Points
    stay in run order, which is the order the folds add in.
    """
    order = np.argsort(timestamps, kind="stable")
    merged = timestamps[order]
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
        values,
        # Each instant's run in the sorted union is its column's cells.
        aggregators.segment_lengths(starts, merged.shape[0]),
    )


def aggregate_across(block: Block, name: str) -> SeriesSlice:
    """Combine a block's runs — one group's series — into one series by
    aggregating per timestamp.

    Timestamps are the union of all input timestamps; at each instant the
    aggregator sees the values of every series that has a point exactly
    there, and nothing else: a series without a point at that second is
    absent from the fold, not interpolated.  Feeds are *not* aligned on
    a shared second — on the paper's own pipeline
    (``trondheim_deployment()``) every instant holds exactly one
    series — so a downsampled cross-series panel folds single points
    and then downsamples them.  (OpenTSDB downsamples each series first
    and interpolates across series; moving to that order is ROADMAP
    item 3, and this function does not attempt it.)

    ``name`` is a registered aggregator; it reduces the aligned points
    as :class:`~repro.tsdb.aggregators.Cells` — for the folds, bit for
    bit the fold down the series × instant matrix, which is never built.
    The alignment is the block's own (:meth:`Block.aligned`), so the
    panels of one filter, window and group (a dashboard's ``avg`` and
    ``dev`` panels, or its ``median`` and ``p95``) share it and what the
    aggregators derive from it, and differ only in the final reduction.

    A block whose one non-empty run is its own aggregate comes back as
    that run — the block's read-only columns.
    """
    agg = aggregators.lookup(name)
    bounds = block.bounds
    filled = int(np.count_nonzero(bounds[1:] != bounds[:-1]))
    if filled == 0:
        return _empty_slice()
    if filled == 1 and agg.lone_is_itself:
        # Sound only where aggregating one series is the identity —
        # count (→ 1-where-finite) and dev (→ 0) take the full path, or
        # a group whose siblings fall away (rate on a 1-point series)
        # would return raw values instead.
        return SeriesSlice(block.timestamps, agg.lone(block.values))
    all_ts, cells = block.aligned()
    return SeriesSlice(all_ts, agg.reduce(cells))


def downsampled(
    query: Query, reduced: Block | Sequence[SeriesSlice]
) -> list[SeriesSlice]:
    """The downsample stage of :func:`execute_plan`: the groups'
    instants, one run per group and all inside ``[query.start,
    query.end]``, bucketed over that range in one pass (``reduced`` a
    block) — or, undownsampled, each group copied out once (``reduced``
    a block or the groups' folds): a result owns its columns, and a
    cached view would pin the whole block."""
    if query.downsample is not None:
        return apply_block(reduced.timestamps, reduced.values, reduced.bounds,
                           query.downsample, query.start, query.end)
    if not isinstance(reduced, Block):
        return [SeriesSlice(s.timestamps.copy(), s.values.copy()) for s in reduced]
    ts, values, bounds = reduced.timestamps, reduced.values, reduced.bounds
    return [
        SeriesSlice(ts[a:b].copy(), values[a:b].copy())
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def execute_plan(query: Query, grouping: Grouping, block: Block) -> QueryResult:
    """The rate → group-by → aggregate → downsample plan over one block,
    in two stages: each group's fold across its series at every instant
    (rate applied per series first), then :func:`downsampled`.  An
    instant's value reads only that instant's cells, so it is the same in
    any window that holds the instant.

    ``block`` holds the series ``query``'s filter matches over its
    window, run ``i`` the points of the filter's key ``i``; ``grouping``
    is the filter's :class:`~repro.tsdb.catalog.Grouping` under
    ``query.group_by``.  Groups form from the key set alone, and a
    group's series aggregate in key order.  Where no group holds more
    than one non-empty series and the aggregator makes a lone series its
    own aggregate (a per-node ``avg``, say), every group is its run:
    the block, regrouped, is the reduction, with no pass per group —
    :func:`aggregate_across`'s rule for a lone series
    (:meth:`~repro.tsdb.aggregators.Aggregator.lone`), taken for every
    group at once.  Otherwise each group folds on its own; undownsampled,
    each fold is copied out once.
    """
    scanned = len(block)
    if not grouping.groups:
        empty = ResultSeries(query.metric, {}, _empty_slice(), ())
        return QueryResult(query=query, series=(empty,), scanned_points=scanned)
    if query.rate:
        block = block.rated()
    runs = block.grouped(grouping)
    agg = aggregators.lookup(query.aggregator)
    edges = grouping.bounds  # group g holds runs edges[g] to edges[g + 1] - 1
    # non-empty runs before each run bound, read at the group edges
    filled = np.zeros(runs.bounds.shape[0], dtype=np.intp)
    np.cumsum(runs.bounds[1:] != runs.bounds[:-1], out=filled[1:])
    filled = filled[edges]
    if agg.lone_is_itself and (filled[1:] - filled[:-1]).max() <= 1:
        reduced = Block(runs.timestamps, agg.lone(runs.values), runs.bounds[edges])
    else:
        folds = [
            aggregate_across(runs.runs(i, j), query.aggregator)
            for i, j in zip(edges[:-1].tolist(), edges[1:].tolist())
        ]
        reduced = Block.of(folds) if query.downsample is not None else folds
    series = tuple(
        ResultSeries(
            metric=query.metric,
            group_tags=dict(label),
            slice=combined,
            source_series=keys,
        )
        for (label, keys), combined in zip(grouping.groups, downsampled(query, reduced))
    )
    return QueryResult(query=query, series=series, scanned_points=scanned)


# ---------------------------------------------------------------------------
# The one executor: a block per filter
# ---------------------------------------------------------------------------


def _run_filter(
    queries: Sequence[Query],
    members: list[int],
    resolved: Resolution,
    results: list,
) -> None:
    """Every query of one filter (``members``, indices into
    ``queries``) from the block of its window.  The filter's series are
    scanned once per run of overlapping windows, over that run's union,
    and each window is cut from it: nested windows (a wall's half-hourly
    and hourly edges) share one scan, and windows apart (a sliding
    wall's head and tail) each copy only their own points."""
    windows = sorted({(queries[i].start, queries[i].end) for i in members})
    blocks: dict[tuple[int, int], Block] = {}
    k = 0
    while k < len(windows):
        lo, hi = windows[k]
        j = k + 1
        while j < len(windows) and windows[j][0] <= hi:
            hi = max(hi, windows[j][1])
            j += 1
        union = Block.scan(resolved.stores, lo, hi)
        for window in windows[k:j]:
            blocks[window] = union if window == (lo, hi) else union.between(*window)
        k = j
    for i in members:
        q = queries[i]
        results[i] = execute_plan(q, resolved.groups(q.group_by), blocks[q.start, q.end])


def run_unique_batch(
    queries: Sequence[Query],
    resolve: Callable[[tuple], Resolution],
) -> list[QueryResult]:
    """Execute deduplicated queries, one filter at a time.

    The executor behind every store's ``_run_unique_batch`` hook: each
    distinct filter (:attr:`Query.filter`) goes through ``resolve`` once
    — its keys, groupings and column stores, kept by the catalog across
    batches — its series are scanned into one :class:`Block` per run of
    overlapping windows (:func:`_run_filter`), and each of its queries
    runs :func:`execute_plan` on the block of its window.  Results align
    with ``queries``.

    A block copies the points it holds, and what its queries derive
    from it is as large as the points again; only queries of the same
    filter can share either.  So the batch runs one filter at a time,
    in order of first appearance, and a filter's blocks and all they
    kept are dropped before the next filter's are made.
    """
    by_filter: dict[tuple, list[int]] = {}
    for i, q in enumerate(queries):
        by_filter.setdefault(q.filter, []).append(i)
    results: list[QueryResult | None] = [None] * len(queries)
    for filter_, members in by_filter.items():
        _run_filter(queries, members, resolve(filter_), results)
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
