"""The serving store: every request through the result cache and the
panel state, re-scanning only what can have changed.

:class:`CachingStore` wraps the store stack and owns a
:class:`~repro.serve.cache.ResultCache`, a table of panel state keyed by
:attr:`~repro.tsdb.query.Query.panel` and the :class:`RefreshStats` of
that table.  A dashboard panel is the same query re-run with a sliding
window.  A steady-state store is append-only — points arrive with
timestamps past each series' maximum — so everything the previous
answer computed below a *splice boundary* is final and only the
window's edges need rescanning.

The boundary is exact, not heuristic:

- :attr:`~repro.tsdb.series.SeriesStore.reshape_generation` holds still
  while a series only grows past its maximum timestamp; the metric
  generation holds still while the query's match set is stable.  While
  both hold, history below ``B = min(last timestamp over matched
  series)`` cannot change: any new append lands strictly after its own
  series' last point, hence strictly after ``B``.
- the metric's reshape counter
  (:meth:`~repro.tsdb.interface.StoreApi.metric_reshape_generation`)
  moves with every series reshape and every series created or removed
  under the metric, so while it holds still both of the above do, and
  the check reads that one counter instead of one per matched series;
  only once it has moved (a reshape anywhere under the metric — another
  city's backfill, say) are the per-series counters compared.  The
  validators are read once, before the panel's full run; a later answer
  compares against them and reads only ``B`` afresh — once per filter
  per step (:meth:`~repro.serve.cache.ValidatorView.boundary`), so the
  panels of a wall that share a filter share one read of each matched
  series' last point, off the column stores the catalog's kept
  resolution of the filter holds.
- downsample buckets are epoch-aligned and (for the ``none``/``zero``
  fill policies) computed from their own bucket's points only, so
  buckets strictly below the *cut* ``floor((B+1)/w)*w`` are final and
  the *tail* query re-runs from that bucket boundary.

**The head rule.**  A window start that moved forward to ``s`` cuts
only the bucket ``s`` falls in.  A bucket reads only its own points,
and an instant folds only its own cells (the
:mod:`~repro.tsdb.aggregators` docstring; ``execute_plan`` aggregates
across series at each instant *before* it downsamples), so every held
bucket at or above ``ceil_w(s)`` was never cut by the old start either
and is kept.  Off the grid, the *head* query re-runs ``[s, ceil_w(s) -
1]``; a head that reaches the cut leaves nothing to keep, and the panel
runs in full.

**The quiet rule.**  A panel's state also keeps its metric's write
counter (:meth:`~repro.tsdb.interface.StoreApi.metric_write_generation`),
read on the *before* side of the held answer's bracket.  While it reads
the same, nothing under the metric was written since: the held answer
is still a fresh run's over the whole held window, and the held ``B``
still bounds every last point from below, so it is not read again.
When the query's end is the held end, the cut is ``end + 1`` — every
held bucket is kept and there is no tail — provided the head, if any,
ends at or below ``B``; otherwise (and when the end moved) the cut is
the boundary rule's over the held ``B``.  A quiet panel asked for an
unchanged window (one the result cache no longer holds) is therefore
cache-only: the same series objects, answered *not modified*.

It is sound for the reason a result-cache hit is — the counter is
monotonic, never pruned, and bumped before the columns change — plus
one argument for a write that races the edge scans (step 3 below).  An
append lands past its series' last point, so past ``B``: never in a
head that ends at or below ``B``, and — with no tail — only in kept
buckets or past the window, so the reply is a fresh run's from before
it.  (Keeping buckets past ``B``
beside a head above ``B``, or beside a tail, would let one write that
catches a lagging series up land in an edge *and* in a kept bucket: a
reply no fresh run gives.)  A reshape fails ``_holds`` on the *after*
side, as for any panel.  Since the state keeps the counter read before
the batch, the next request sees it moved and takes the boundary path.

The spliced series are byte-identical to a full re-run: head and tail
are the *same* query over their ranges through the same planner, and
the kept middle is the previous answer's output for instants the store
guarantees unchanged.  Held, head and tail series are paired by
position.  That is exact because the validators that let a panel splice
fix its match set: they hold only while the metric generation does
(read directly, or implied by the reshape counter, which every series
creation and removal moves), and a bracket whose two sides hold saw no
series created or removed in between.  So the edges matched the held
answer's keys, formed its groups and listed them in the same label
order.  ``rate`` queries and the ``previous``/``linear``
fills couple values across buckets and always take the full path, as
does any validator mismatch (out-of-order write, retention delete,
series churn) and a window that moved back or whose end shrank.

A request (``run_many(queries)``; ``run(q)`` is the batch of one) is
answered as a fresh run on the wrapped store would answer it, byte for
byte, in two phases — :meth:`CachingStore.look_up` (step 1) and
:meth:`~CachingStore.finish` (steps 2–5, then the results assembled).
``run_many`` runs both on the calling thread; the server runs the first
on its event-loop thread and sends only a request with a miss left to a
worker thread for the second:

1. exact hits come from the result cache first, through one view;
2. **classify** every miss whose panel shape has state against that
   *before* :class:`~repro.serve.cache.ValidatorView`: may the shape be
   spliced, does the window advance, do the validators hold, is it
   quiet, where are the cut and the head, what is the boundary now.  A
   panel comes out *cache-only* (nothing to scan), *delta* (a head, a
   tail or both) or *full*;
3. **execute** every delta's edge queries and every full miss as
   **one** planned batch on the wrapped store (its
   ``_run_unique_batch``): one match per filter, its series scanned
   once per run of overlapping windows and laid end to end as a block
   (a head and a tail apart are two) — a wall's avg and dev panels
   over one window still share one alignment — and no edge inserted
   into the result cache, where its window could only evict what
   requests are served from;
4. **validate** every delta against a fresh *after* view, then splice
   and remember; the full runs seed panel state through the
   ``_capture`` / boundary bracket.  A delta whose validators no longer
   hold is dropped, counted ``invalidated`` and run in full in a
   bracket of its own;
5. every answer, spliced or full, goes into the result cache with
   validators read before it, so an exact repeat is a hit, not a
   splice; a splice counts as a cache miss and as an incremental or
   cache-only run.

The capture-before / check-after bracket is therefore per *batch*, not
per panel: every scan of step 3 lies between the reads of steps 1–2
and those of step 4.  That is strictly more conservative than a bracket
per panel — a reshaping write anywhere in the window sends every panel
that reads the series down the full path — and it is only sound because
no view outlives its step.  Step 1's view is step 2's: it may cross
from the loop thread to a worker with its :class:`Request`, but never
an execution, so a write landing between the phases lands on the
*before* side, where an earlier read is the more conservative one.
:class:`RefreshStats` counts the panel-state work of every request; a
result-cache hit does none.

An answer's ``scanned_points`` is what a fresh run scans — the matched
series' points in ``[start, end]``: the edges' own counts plus the
points under the kept buckets.  Those are the difference of two
*prefix counts* (the matched points from the held start up to an
instant), each read off the state where it holds one, else counted
from the nearest one it holds through scan views (a searchsorted pair
per series, nothing copied or rescanned) on the *before* side of the
bracket — never more than one view per series.  The state holds the
held answer's own ``scanned_points`` (to the held end), while the
panel is quiet, and the counts up to where its head ended and up to its
cut, each where it lies at or below the boundary: points below the
boundary are final for the reason kept buckets are, so those hold for
as long as the validators do.  A start that moved on inside the bucket
its last head was scanned in counts nothing, and neither does a live
panel — start fixed, a minute written, the end moved — whose cut did
not move; one whose cut crossed a bucket counts the crossed buckets.

Every spliced series also notes what it was spliced *from*, when a
conditional reply has ever named the previous series
(:func:`~repro.serve.cache.remember_series_origin`: the previous
series' tag, the held run ``[a, b)`` it kept and its head count ``h``),
whether the start moved, the end moved or both; a splice that changed no
value is the previous series' text and keeps its tag
(:func:`~repro.serve.cache.remember_series_held`).  A client that says
it holds the previous reply is then sent the splice alone — the head,
and the tail past the kept run, cut where its base64 columns can be
spliced as text (:func:`~repro.tsdb.wire.splice_column`) — and the
series is named by its edges
(:func:`~repro.serve.cache.series_tag`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from ..tsdb.downsample import FillPolicy
from ..tsdb.interface import StoreWrapper
from ..tsdb.plan import Batch
from ..tsdb.query import Query, QueryResult, ResultSeries
from ..tsdb.series import SeriesSlice
from .cache import (
    HELD_PANELS,
    BoundedLRU,
    ResultCache,
    ValidatorView,
    _freeze,
    cached_series_tag,
    remember_series_held,
    remember_series_origin,
)


@dataclass
class RefreshStats:
    """Cumulative panel-state accounting over every request (a
    result-cache hit does no panel-state work and counts nowhere)."""

    full_runs: int = 0  # misses run in full
    incremental_runs: int = 0  # misses spliced from held buckets and edges
    cache_only_runs: int = 0  # window advanced, but nothing to rescan
    invalidated: int = 0  # panel state dropped on a validator mismatch
    evicted: int = 0  # panel state dropped as the least recently answered
    batches: int = 0  # requests executed
    delta_queries: int = 0  # edge queries handed to the planner

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _PanelState:
    """What the last answer for one panel shape knew."""

    start: int
    end: int
    boundary: int  # min last-timestamp over sources, before the run
    #: (metric reshape counter, metric generation, ((series key, reshape
    #: generation), ...)), read before the panel's last full run.
    validators: tuple
    result: QueryResult
    writes: int  # the metric's write counter, before the answer's run
    points: int  # the matched points in [start, end]: the scanned_points
    #: instant x -> the matched points in [start, x - 1], for x - 1 at or
    #: below the boundary: final while the validators hold.
    counts: dict[int, int]


def _slices(result: QueryResult | None, n: int) -> list[SeriesSlice | None]:
    """An edge result's series by position (see ``_splice_panel``), or
    ``n`` times None for an edge not run."""
    return [None] * n if result is None else [s.slice for s in result.series]


def _splice(
    head: SeriesSlice | None,
    held: SeriesSlice,
    tail: SeriesSlice | None,
    keep_from: int | None,
    cut: int,
) -> tuple[SeriesSlice, int, int]:
    """The head's instants, the held ones in ``[keep_from, cut)``, then
    the tail's; and the held positions ``a, b`` of that kept run.

    ``keep_from=None`` keeps the held prefix untrimmed (the window start
    did not move, so the held head is already exactly the query's head —
    trimming at an unaligned start would drop a leading bucket whose
    epoch-aligned timestamp sits before it).
    """
    ts = held.timestamps
    a = 0 if keep_from is None else int(ts.searchsorted(keep_from, side="left"))
    b = int(ts.searchsorted(cut, side="left"))
    parts = [
        part
        for part in (head, SeriesSlice(ts[a:b], held.values[a:b]), tail)
        if part is not None
    ]
    spliced = SeriesSlice(
        np.concatenate([part.timestamps for part in parts]),
        np.concatenate([part.values for part in parts]),
    )
    return spliced, a, b


def _unchanged(new: SeriesSlice, held: SeriesSlice, a: int, b: int, h: int) -> bool:
    """Is a splice (``h`` head points, the held ``[a, b)``, a tail) the
    held series bit for bit?  Only its edges are compared: the kept run
    must sit where it was held (``a == h``) in a series of the same
    length."""
    if a != h or len(new) != len(held):
        return False
    nv, hv, nt, ht = new.values, held.values, new.timestamps, held.timestamps
    return (
        nv[:h].tobytes() == hv[:h].tobytes()
        and nv[b:].tobytes() == hv[b:].tobytes()
        and nt[:h].tobytes() == ht[:h].tobytes()
        and nt[b:].tobytes() == ht[b:].tobytes()
    )


@dataclass
class _Delta:
    """Step 2's plan for one panel that will be spliced: the held
    buckets in ``[keep_from, cut)`` between two optional edge queries
    (neither: the panel is cache-only)."""

    st: _PanelState
    head: Query | None  # the panel's query over [start, keep_from - 1]
    tail: Query | None  # the panel's query over [cut, end]
    keep_from: int | None  # where the held buckets start; None: unmoved
    cut: int
    boundary: int  # min last-timestamp over sources, before the run
    writes: int  # the metric's write counter, before the run

    @property
    def edges(self) -> tuple[Query | None, Query | None]:
        return self.head, self.tail

    @property
    def cache_only(self) -> bool:
        return self.head is None and self.tail is None


def _splice_shape(q: Query) -> tuple[int | None, bool]:
    """(bucket width, may this panel be spliced at all)."""
    ds = q.downsample
    splice_safe = not q.rate and (
        ds is None or ds.fill in (FillPolicy.NONE, FillPolicy.ZERO)
    )
    return (None if ds is None else ds.width), splice_safe


def _scanned(result: QueryResult | None) -> int:
    return 0 if result is None else result.scanned_points


class Request:
    """One request between its two phases
    (:meth:`CachingStore.look_up`, then :meth:`~CachingStore.finish`):
    its batch, the results found so far (None: a miss) and the
    look-up's *before* view, which the run phase brackets its execution
    with."""

    __slots__ = ("batch", "results", "before")

    def __init__(
        self, batch: Batch, results: list, before: ValidatorView
    ) -> None:
        self.batch = batch
        self.results = results
        self.before = before

    @property
    def answered(self) -> bool:
        """Did the result cache answer every query?  Then
        :meth:`~CachingStore.finish` only assembles."""
        return all(r is not None for r in self.results)


class CachingStore(StoreWrapper):
    """The serving store: ``run_many`` through a
    :class:`~repro.serve.cache.ResultCache` (:attr:`cache`) and the
    panel state kept per panel shape (:attr:`stats` counts its work).

    ``run_many(queries)`` is :meth:`look_up` then :meth:`finish` (the
    module docstring) and returns, ``scanned_points`` included, what a
    fresh ``run_many`` on the wrapped store would; misses run as one
    batch on the wrapped store's ``_run_unique_batch``.  Every
    primitive, write or read, passes through, so writes through it
    invalidate exactly what they touch.  It is the outermost layer of
    the store stack: ``CachingStore(DurableStore(ReplicatedStore(store)))``.
    """

    def __init__(self, store, *, capacity: int = 128) -> None:
        super().__init__(store)
        self.cache = ResultCache(capacity)
        self._panels: BoundedLRU = BoundedLRU(HELD_PANELS)  # Query.panel -> _PanelState
        self.stats = RefreshStats()

    def clear(self) -> None:
        """Forget every cached answer and every panel's state: the next
        answer for each runs in full."""
        self.cache.clear()
        self._panels.clear()

    # -- validators (``store``: a ValidatorView, one step old) -----------
    @staticmethod
    def _capture(store, q: Query) -> tuple:
        """The panel's validators before a full run: the metric's
        counters, then each matched series' reshape generation."""
        reshapes = store.metric_reshape_generation(q.metric)
        metric_gen = store.metric_generation(q.metric)
        matched = store._resolve(q.filter).keys
        return reshapes, metric_gen, tuple(
            (key, store.series_reshape_generation(key)) for key in matched
        )

    @classmethod
    def _seed_of(cls, store, q: Query) -> tuple:
        """What a full run's panel state is seeded from, read before the
        run: (validators, boundary, write counter)."""
        return (
            cls._capture(store, q),
            store.boundary(q.filter),
            store.metric_write_generation(q.metric),
        )

    @staticmethod
    def _holds(store, q: Query, validators: tuple) -> bool:
        """Nothing the panel's kept buckets depend on was reshaped: the
        metric's reshape counter held still, or — once it has moved —
        the match set and every matched series' reshape generation."""
        reshapes, metric_gen, reshape_gens = validators
        if store.metric_reshape_generation(q.metric) == reshapes:
            return True
        if store.metric_generation(q.metric) != metric_gen:
            return False
        return all(
            store.series_reshape_generation(key) == gen
            for key, gen in reshape_gens
        )

    @staticmethod
    def _points(store, q: Query, lo: int, hi: int) -> int:
        """The matched series' points in ``[lo, hi]``, from scan views."""
        n = 0
        for key in store._resolve(q.filter).keys:
            series = store._series(key)
            if series is not None:
                n += len(series.scan(lo, hi))
        return n

    def _kept(self, store, q: Query, d: _Delta) -> int:
        """The matched points under a delta's kept buckets, ``[lo, hi)``:
        prefix counts the state holds where they spare a scan view."""
        st = d.st
        lo = q.start if d.head is None else d.keep_from
        hi = min(d.cut, q.end + 1)
        known = {**st.counts, st.start: 0}
        if d.writes == st.writes:  # quiet: the held window holds its points
            known[st.end + 1] = st.points

        def prefix(x: int) -> int:
            """The points in [st.start, x - 1], from the nearest known."""
            near = min(known, key=lambda k: abs(k - x))
            if near < x:
                return known[near] + self._points(store, q, near, x - 1)
            if near > x:
                return known[near] - self._points(store, q, x, near - 1)
            return known[near]

        if lo in known:
            return prefix(hi) - known[lo]
        if hi in known:
            return known[hi] - prefix(lo)
        return self._points(store, q, lo, hi - 1)

    # -- execution -------------------------------------------------------
    def run_many(self, queries: list[Query]) -> list[QueryResult]:
        """One request, executed as one batch (see the module docstring):
        its look-up phase, then its run phase, on the calling thread.
        The shared planner dedups the batch, as it does for any store.
        """
        return self.finish(self.look_up(queries))

    def look_up(self, queries: list[Query]) -> Request:
        """A request's look-up phase: dedup, then the exact hits from
        the result cache, through one view (module docstring, 1).

        Scans nothing; what is left is :meth:`finish`'s, which may run
        on another thread.
        """
        batch = Batch(queries)
        self.stats.batches += 1
        before = ValidatorView(self._store)
        results = [self.cache.lookup(before, q) for q in batch.queries]
        return Request(batch, results, before)

    def finish(self, request: Request) -> list[QueryResult]:
        """A request's run phase: the misses, one bracket at a time
        (module docstring, 2–5), then the request's results assembled."""
        batch, results = request.batch, request.results
        misses = [i for i, r in enumerate(results) if r is None]
        before = request.before
        while misses:
            misses = self._run_misses(before, batch, misses, results)
            before = ValidatorView(self._store)
        return batch.assemble(results)

    def _run_misses(
        self,
        before: ValidatorView,
        batch: Batch,
        misses: list[int],
        results: list,
    ) -> list[int]:
        """One bracket around one batch: the misses' edges and full
        runs.  Returns the deltas whose validators failed after it."""
        queries = batch.queries
        cache = self.cache
        stats = self.stats
        deltas: dict[int, _Delta] = {}
        seeds: dict[int, tuple] = {}  # full run -> its _seed_of
        kept: dict[int, int] = {}  # delta -> points under its kept buckets
        for i in misses:
            q = queries[i]
            plan = self._classify(before, q)
            if plan is not None:
                deltas[i] = plan
                kept[i] = self._kept(before, q, plan)
            elif _splice_shape(q)[1]:
                seeds[i] = self._seed_of(before, q)
        validators = {i: cache.capture(before, queries[i]) for i in misses}
        fulls = [i for i in misses if i not in deltas]
        edges, ran = self._run_batch(
            list(deltas.values()), [queries[i] for i in fulls]
        )
        after = ValidatorView(self._store)
        retry: list[int] = []
        for (i, d), (head, tail) in zip(deltas.items(), edges):
            q = queries[i]
            if not d.cache_only and not self._holds(after, q, d.st.validators):
                # A reshaping write raced the edge scans; the splice
                # would mix epochs.  Drop the state, run it in full.
                self._panels.pop(q.panel, None)
                stats.invalidated += 1
                retry.append(i)
                continue
            if d.cache_only:
                stats.cache_only_runs += 1
            else:
                stats.incremental_runs += 1
            results[i] = self._splice_panel(d, q, head, tail, kept[i])
        stats.full_runs += len(fulls)
        for i, result in zip(fulls, ran):
            q = queries[i]
            results[i] = result
            self._seed(after, q, seeds.get(i), result)
        for i in misses:
            if i not in retry and cache.insert(
                after, queries[i], validators[i], results[i]
            ):
                _freeze(results[i])
        return retry

    def _run_batch(
        self, deltas: list[_Delta], fulls: list[Query]
    ) -> tuple[list[tuple], list[QueryResult]]:
        """Step 3: every delta's edge queries, then ``fulls``, as one
        planned batch on the wrapped store.  Returns each delta's
        (head, tail) results and the full runs' results."""
        batch = [q for d in deltas for q in d.edges if q is not None]
        self.stats.delta_queries += len(batch)
        batch += fulls
        ran = iter(self._store._run_unique_batch(batch) if batch else ())
        edges = [
            tuple(None if q is None else next(ran) for q in d.edges)
            for d in deltas
        ]
        return edges, list(ran)

    def _classify(self, before: ValidatorView, query: Query) -> _Delta | None:
        """Step 2 for one panel: its splice plan, or None when it must
        run in full."""
        key = query.panel
        st = self._panels.get(key)
        if st is None:
            return None
        width, splice_safe = _splice_shape(query)
        if not splice_safe:
            # Never stateful for rate/previous/linear panels.
            self._panels.pop(key, None)
            return None
        if not self._window_advances(st, query):
            return None
        if not self._holds(before, query, st.validators):
            self._panels.pop(key, None)
            self.stats.invalidated += 1
            return None
        start = query.start
        if start == st.start:
            keep_from = None
            lo = start if width is None else (start // width) * width
        else:  # the head rule: keep from the first bucket s cannot cut
            keep_from = lo = start if width is None else -(-start // width) * width
        writes = before.metric_write_generation(query.metric)
        quiet = writes == st.writes  # nothing under the metric written since
        if quiet and query.end == st.end and lo <= max(start, st.boundary + 1):
            # The quiet rule: the held answer is the whole window's; the
            # head, if any, ends at or below the boundary, out of reach
            # of an append racing the scans.
            cut = st.end + 1
        else:
            # Instants <= C are final *and* covered by the held window.
            C = min(st.boundary, st.end)
            cut = C + 1 if width is None else ((C + 1) // width) * width
        if min(cut, query.end + 1) <= lo:
            # Nothing held is kept: a lagging series pins the boundary at
            # or before the window's first whole bucket, or the head
            # reaches the cut.
            return None
        head = replace(query, end=lo - 1) if lo > start else None
        tail = replace(query, start=cut) if cut <= query.end else None
        # (a quiet panel's held boundary still holds)
        boundary = (
            None if quiet or tail is None else before.boundary(query.filter)
        )
        return _Delta(
            st, head, tail, keep_from, cut,
            st.boundary if boundary is None else boundary, writes,
        )

    @staticmethod
    def _window_advances(st: _PanelState, q: Query) -> bool:
        """Does the query's window cover the held one's end from a start
        no earlier than the held start?  (A moved start may sit off the
        bucket grid: the head rule re-runs the bucket it cuts.)"""
        return q.end >= st.end and q.start >= st.start

    def _seed(
        self,
        after: ValidatorView,
        query: Query,
        seed: tuple | None,
        result: QueryResult,
    ) -> None:
        """Keep a full run's result as the panel's state when its seed
        (:meth:`_seed_of`, read before the run) still holds."""
        if seed is not None and seed[1] is not None and self._holds(
            after, query, seed[0]
        ):
            points = result.scanned_points
            self._keep(_PanelState(
                start=query.start,
                end=query.end,
                boundary=seed[1],
                validators=seed[0],
                result=result,
                writes=seed[2],
                points=points,
                counts={query.end + 1: points} if query.end <= seed[1] else {},
            ))
            return
        self._panels.pop(query.panel, None)
        if seed is not None and seed[1] is not None:
            # A write raced the run; an empty/partial match (boundary
            # None) is just "nothing to remember".
            self.stats.invalidated += 1

    def _splice_panel(
        self,
        plan: _Delta,
        query: Query,
        head: QueryResult | None,
        tail: QueryResult | None,
        kept: int,
    ) -> QueryResult:
        """Step 4 for one panel whose validators held: the head, the
        held buckets in ``[keep_from, cut)``, then the tail — paired by
        position.  The validators that held fix the match set, so the
        edges formed the held answer's groups in the held order."""
        st = plan.st
        if head is None and tail is None and plan.keep_from is None:
            # The held answer is the answer: the same series objects, so
            # a client holding them is answered *not modified*.
            series = st.result.series
        else:
            n = len(st.result.series)
            out = []
            for prev, h, t in zip(
                st.result.series, _slices(head, n), _slices(tail, n), strict=True
            ):
                columns, a, b = _splice(h, prev.slice, t, plan.keep_from, plan.cut)
                n_head = 0 if h is None else len(h)
                prev_tag = cached_series_tag(prev)
                unchanged = prev_tag is not None and _unchanged(
                    columns, prev.slice, a, b, n_head
                )
                spliced = ResultSeries(
                    metric=prev.metric,
                    group_tags=prev.group_tags,
                    slice=prev.slice if unchanged else columns,
                    source_series=prev.source_series,
                )
                out.append(spliced)
                if unchanged:  # named as held: *not modified* to its holder
                    remember_series_held(spliced, prev_tag)
                elif prev_tag is not None:  # some client may hold prev
                    remember_series_origin(spliced, prev_tag, a, b, n_head)
            series = tuple(out)
        lead = _scanned(head)
        scanned = lead + kept + _scanned(tail)
        result = QueryResult(query=query, series=series, scanned_points=scanned)
        # The prefix counts this answer measured that lie at or below the
        # boundary: where the head ended, and the cut.
        counts = {} if head is None else {plan.keep_from: lead}
        hi = min(plan.cut, query.end + 1)
        if hi - 1 <= plan.boundary:
            counts[hi] = lead + kept
        self._keep(_PanelState(
            start=query.start,
            end=query.end,
            boundary=plan.boundary,
            validators=st.validators,
            result=result,
            writes=plan.writes,
            points=scanned,
            counts=counts,
        ))
        return result

    def _keep(self, state: _PanelState) -> None:
        """Remember ``state`` under its answer's panel, as the most
        recently answered one; past ``HELD_PANELS`` the least recently
        answered is forgotten."""
        self.stats.evicted += self._panels.put(state.result.query.panel, state)


def IncrementalRefresher(store: CachingStore) -> CachingStore:
    """``store`` itself: a :class:`CachingStore` keeps its own panel
    state.  (A name the frozen e2e benchmark still calls.)"""
    return store
