"""Incremental dashboard refresh: re-scan only what can have changed.

A dashboard panel is the same query re-run with a sliding window.  A
steady-state store is append-only — points arrive with timestamps past
each series' maximum — so everything the previous refresh computed
below a *splice boundary* is final and only the tail needs rescanning.

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
  validators are read once, before the panel's full run; a refresh
  compares against them and reads only ``B`` afresh.
- downsample buckets are epoch-aligned and (for the ``none``/``zero``
  fill policies) computed from their own bucket's points only, so
  buckets strictly below ``floor((B+1)/w)*w`` are final and the delta
  query re-runs from that bucket boundary.

The spliced series are byte-identical to a full re-run: the delta is
the *same* query over ``[splice, end]`` through the same planner, and
the kept prefix is the previous run's output for instants the store
guarantees unchanged.  ``rate`` queries and the ``previous``/``linear``
fills couple values across the boundary and always take the full path,
as does any validator mismatch (out-of-order write, retention delete,
series churn, window moving backwards).

``scanned_points`` on an incremental result counts only the points the
*delta* actually scanned — that asymmetry is the speedup being
measured; the series content is what is guaranteed identical.

A refresh request is one batch, in three phases
(:meth:`IncrementalRefresher._refresh`; ``run(q)`` is the batch of one):

- **A — classify** every panel against a *before*
  :class:`~repro.serve.cache.ValidatorView`: is there state, may the
  shape be spliced, does the window advance, do the validators hold,
  where is the cut, what is the boundary now.  A panel comes out
  *cache-only* (answered here), *delta* or *full*.
- **B — execute** all delta queries of the request as **one** planned
  batch on the store *under* the result cache (``_run_uncached_batch``,
  the hook ``CachingStore`` itself runs on a miss): one match per
  filter, one covering scan per touched series, one shared alignment —
  and nothing inserted into the result cache, where a delta's
  ``(cut, end)`` key could only evict what plain requests are served
  from.
- **C — validate** every delta panel against a fresh *after* view, then
  splice and remember; a panel whose validators no longer hold is
  dropped, counted ``invalidated`` and run in full.

The capture-before / check-after bracket is therefore per *batch*, not
per panel: every scan of phase B lies between the reads of A and the
reads of C.  That is strictly more conservative than a bracket per
panel — a reshaping write anywhere in the window sends every panel that
reads the series down the full path — and it is only sound because no
view outlives its phase.

Full runs stay one panel at a time, each inside its own bracket and
*through* the caching store (a first refresh may be answered by what a
plain request cached): a bracket per panel sends one panel down the
full path again when a write races it, a bracket around twelve sends
twelve.  Memory is no longer the reason.  When a scan copied its
columns and a batch kept every filter's alignment until its last panel,
twelve full panels planned as one batch read ``dashboard_live``
``peak_rss_mb`` 186 → 215, outside its 8 % bound; now that a batch
holds views and one filter's cells (:func:`~repro.tsdb.plan.run_unique_batch`)
the same variant reads 153.7 → 154.4 MB over six pairs, journey
unchanged — so batching the full runs is open again, as an argument
about the bracket alone.  A request that names one panel shape twice
(two windows) is cut at the repeat, so the later entry sees the state
the earlier one left.

The reply text is spliced the same way.  Once a reply has encoded the
previous result (:func:`~repro.serve.cache.series_text` leaves the text
on each series), an incremental run keeps that text up to the end of
the final prefix, encodes only the points that became final since the
last cut plus the delta, and leaves the assembled text on the new
series for the reply path to find.  Where there is nothing to extend —
a full run, a moved window start, a result nobody encoded — the series
carries no text and the reply path encodes it from scratch.

Beside the text, a spliced series notes what it was spliced *from*
(:func:`~repro.serve.cache.remember_series_tail`: the previous series'
content digest, how many of its points were kept, the delta's ``dps``
text), when a conditional reply has ever named the previous series — so
a client that says it holds the previous reply is sent the tail alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..tsdb import wire
from ..tsdb.downsample import FillPolicy
from ..tsdb.plan import ExprQuery, ExprResult, run_batch
from ..tsdb.query import Query, QueryResult, ResultSeries
from ..tsdb.series import SeriesSlice
from .cache import (
    BoundedLRU,
    ValidatorView,
    cached_series_tag,
    cached_series_text,
    remember_series_tag,
    remember_series_tail,
    remember_series_text,
    text_digest,
)


@dataclass
class RefreshStats:
    """Cumulative refresher accounting."""

    full_runs: int = 0
    incremental_runs: int = 0
    cache_only_runs: int = 0  # window advanced, but nothing to rescan
    invalidated: int = 0  # panel state dropped on a validator mismatch
    evicted: int = 0  # panel state dropped as the least recently refreshed
    batches: int = 0  # refresh requests executed
    delta_queries: int = 0  # queries handed to the planner for deltas

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _PanelState:
    """What the last refresh of one panel knew."""

    start: int
    end: int
    boundary: int  # min last-timestamp over sources, before the run
    #: (metric reshape counter, metric generation, ((series key, reshape
    #: generation), ...)), read before the panel's last full run.
    validators: tuple
    result: QueryResult
    #: Per series label: (leading points below the cut this result was
    #: spliced at, where their ``dps`` entries end in the series' text,
    #: the running digest of the text up to there).
    final_text: dict


def _panel_key(q: Query) -> tuple:
    """Panel identity: the query minus its time window."""
    ds = q.parsed_downsample()
    return (
        q.metric,
        tuple(sorted(q.tags.items())),
        q.aggregator,
        None if ds is None else (ds.width, ds.agg, ds.fill.value),
        bool(q.rate),
        tuple(sorted(q.group_by)),
    )


def _splice(
    cached: SeriesSlice, delta: SeriesSlice, lo: int | None, cut: int
) -> SeriesSlice:
    """Cached instants in ``[lo, cut)`` followed by the delta's.

    ``lo=None`` keeps the cached prefix untrimmed (the window start did
    not move, so the cached head is already exactly the query's head —
    trimming at an unaligned start would drop a leading bucket whose
    epoch-aligned timestamp sits before it).
    """
    ts = cached.timestamps
    a = 0 if lo is None else int(np.searchsorted(ts, lo, side="left"))
    b = int(np.searchsorted(ts, cut, side="left"))
    return SeriesSlice(
        np.concatenate([ts[a:b], delta.timestamps]),
        np.concatenate([cached.values[a:b], delta.values]),
    )


def _splice_text(
    prev: ResultSeries, known: tuple | None, kept: int, delta: SeriesSlice,
) -> tuple[bytes, tuple, bytes, bytes] | None:
    """Text of ``prev``'s first ``kept`` points followed by the delta's.

    ``known`` — (points, where their ``dps`` entries end in ``prev``'s
    text, the running digest of the text up to there) — says how much of
    ``prev``'s text is already the encoding of a final prefix; only the
    ``kept - known[0]`` points that became final since are encoded, and
    hashed, beside the delta.  Returns the text of the spliced series,
    its own ``known``, the delta's ``dps`` text and the digest of the
    whole text (what :func:`~repro.serve.cache.series_tag` would hash
    it to in one go), or None when ``prev`` was never encoded (nobody
    replies with these results).
    """
    text = cached_series_text(prev)
    if text is None:
        return None
    if known is not None and known[0] <= kept:
        n, end, digest = known
        final = text[:end]
        digest = digest.copy()  # the state's own is never touched
    else:
        n, final = 0, wire.series_head_json(prev)
        digest = text_digest(final)
    newly_final = wire.dps_json(prev.timestamps[n:kept], prev.values[n:kept])
    if newly_final:
        added = (b", " if n else b"") + newly_final
        final += added
        digest.update(added)
    tail = wire.dps_json(delta.timestamps, delta.values)
    rest = (b", " if kept and tail else b"") + tail + wire.SERIES_JSON_TAIL
    whole = digest.copy()
    whole.update(rest)
    return final + rest, (kept, len(final), digest), tail, whole.digest()


@dataclass
class _Delta:
    """Phase A's plan for one panel that will be spliced."""

    st: _PanelState
    query: Query  # the panel's query over ``[cut, end]``
    cut: int
    trim_lo: int | None  # the window start, when it moved
    boundary_now: int | None  # min last-timestamp over sources, before the run


def _splice_shape(q: Query) -> tuple[int | None, bool]:
    """(bucket width, may this panel be spliced at all)."""
    ds = q.parsed_downsample()
    splice_safe = not q.rate and (
        ds is None or ds.fill in (FillPolicy.NONE, FillPolicy.ZERO)
    )
    return (None if ds is None else ds.width), splice_safe


class IncrementalRefresher:
    """Per-panel incremental execution over one store.

    ``run_many(queries)`` always returns the same series a fresh
    ``store.run_many(queries)`` would; it is a refresher, not a snapshot
    — the incremental path merely avoids rescanning finalized history.
    One instance serves many panels (state is keyed per panel shape).
    """

    def __init__(self, store, *, max_panels: int = 256) -> None:
        self._store = store
        self._panels: BoundedLRU = BoundedLRU(max_panels)  # key -> _PanelState
        self.stats = RefreshStats()

    # -- validators (``store``: a ValidatorView, one phase old) ----------
    @staticmethod
    def _capture(store, q: Query) -> tuple:
        """The panel's validators before a full run: the metric's
        counters, then each matched series' reshape generation."""
        reshapes = store.metric_reshape_generation(q.metric)
        metric_gen = store.metric_generation(q.metric)
        matched = store._match(q.metric, q.tags)
        return reshapes, metric_gen, tuple(
            (key, store.series_reshape_generation(key)) for key in matched
        )

    @staticmethod
    def _boundary(store, q: Query) -> int | None:
        """Min last timestamp over the matched series; None when nothing
        matches or a matched series is empty."""
        boundary: int | None = None
        for key in store._match(q.metric, q.tags):
            latest = store.series_latest(key)
            if latest is None:
                return None
            boundary = latest[0] if boundary is None else min(boundary, latest[0])
        return boundary

    @staticmethod
    def _holds(store, q: Query, validators: tuple) -> bool:
        """Nothing the panel's kept prefix depends on was reshaped: the
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

    # -- execution -------------------------------------------------------
    def run_many(
        self, queries: list[Query | ExprQuery]
    ) -> list[QueryResult | ExprResult]:
        """One ``refresh`` request, refreshed as one batch.

        The shared planner dedups the batch and evaluates expression
        panels over their refreshed operands, as it does for any store.
        """
        return run_batch(self, queries)

    def run(self, query: Query) -> QueryResult:
        """The batch of one."""
        return self._run_unique_batch([query])[0]

    def _run_unique_batch(self, queries: list[Query]) -> list[QueryResult]:
        self.stats.batches += 1
        results: list[QueryResult] = []
        panels: dict[tuple, Query] = {}
        for q in queries:
            key = _panel_key(q)
            if key in panels:
                # One shape asked for twice (two windows): the later
                # entry sees the state the earlier one leaves.
                results += self._refresh(panels)
                panels = {}
            panels[key] = q
        return results + self._refresh(panels)

    def _refresh(self, panels: dict[tuple, Query]) -> list[QueryResult]:
        """Distinct panels in the three phases of the module docstring."""
        results: dict[tuple, QueryResult] = {}
        deltas: dict[tuple, _Delta] = {}
        before = ValidatorView(self._store)
        for key, q in panels.items():
            plan = self._classify(before, key, q)
            if isinstance(plan, _Delta):
                deltas[key] = plan
            elif plan is not None:
                results[key] = plan
        if deltas:
            self.stats.delta_queries += len(deltas)
            ran = self._store._run_uncached_batch(
                [d.query for d in deltas.values()]
            )
            after = ValidatorView(self._store)
            for (key, d), delta in zip(deltas.items(), ran):
                q = panels[key]
                if self._holds(after, q, d.st.validators):
                    results[key] = self._splice_panel(key, d, q, delta)
                else:
                    # A reshaping write raced the delta scans; the splice
                    # would mix epochs.  Drop the state, recompute below.
                    self._panels.pop(key, None)
                    self.stats.invalidated += 1
        for key, q in panels.items():
            if key not in results:
                results[key] = self._run_full(key, q)
        return [results[key] for key in panels]

    def _classify(
        self, before: ValidatorView, key: tuple, query: Query
    ) -> QueryResult | _Delta | None:
        """Phase A for one panel: its result when the cached window
        already covers the query's, its delta plan when a tail has to
        be scanned, None when it must run in full."""
        st = self._panels.get(key)
        if st is None:
            return None
        width, splice_safe = _splice_shape(query)
        if not splice_safe:
            # Never stateful for rate/previous/linear panels.
            self._panels.pop(key, None)
            return None
        if not self._window_advances(st, query, width):
            return None
        if not self._holds(before, query, st.validators):
            self._panels.pop(key, None)
            self.stats.invalidated += 1
            return None
        # Instants <= C are final *and* covered by the cached window.
        C = min(st.boundary, st.end)
        if width is None:
            cut = C + 1
        else:
            cut = ((C + 1) // width) * width
        trim_lo = query.start if query.start > st.start else None
        if cut > query.end:
            # The whole window is final history already in cache (this
            # branch implies query.end == st.end, see the boundary
            # arithmetic in the module docstring).
            series, final_text = st.result.series, st.final_text
            if trim_lo is not None:
                series = tuple(
                    ResultSeries(
                        metric=s.metric,
                        group_tags=s.group_tags,
                        slice=s.slice.between(trim_lo, None),
                        source_series=s.source_series,
                    )
                    for s in series
                )
                final_text = {}
            out = QueryResult(query=query, series=series, scanned_points=0)
            self.stats.cache_only_runs += 1
            self._remember(key, st, query, out, st.boundary, final_text)
            return out
        floor_start = (
            query.start if width is None else (query.start // width) * width
        )
        if cut <= floor_start:
            # A lagging series pins the boundary at/before the window
            # start; the delta would be the whole window anyway (and
            # under downsampling would wrongly pull in points below
            # ``start``), so just recompute.
            return None
        delta_q = Query(
            query.metric,
            cut,
            query.end,
            tags=dict(query.tags),
            aggregator=query.aggregator,
            downsample=query.downsample,
            rate=False,
            group_by=query.group_by,
        )
        return _Delta(st, delta_q, cut, trim_lo, self._boundary(before, query))

    def _window_advances(
        self, st: _PanelState, q: Query, width: int | None
    ) -> bool:
        """Can the cached window slide to the query's window exactly?

        The window may only move forward; a moved *start* additionally
        requires bucket alignment under downsampling, because the first
        bucket of a range is truncated at ``start`` and therefore only
        start-independent when ``start`` sits on a bucket boundary.
        """
        if q.end < st.end or q.start < st.start:
            return False
        if q.start == st.start:
            return True
        if width is None:
            return True
        return q.start % width == 0 and st.start % width == 0

    def _run_full(self, key: tuple, query: Query) -> QueryResult:
        """One panel from scratch, through the store's own ``run_many``
        (the result cache, on a server), inside its own bracket."""
        remember = _splice_shape(query)[1]
        before = ValidatorView(self._store)
        validators = self._capture(before, query)
        boundary = self._boundary(before, query)
        result = self._store.run_many([query])[0]
        self.stats.full_runs += 1
        if (
            remember
            and boundary is not None
            and self._holds(ValidatorView(self._store), query, validators)
        ):
            self._keep(key, _PanelState(
                start=int(query.start),
                end=int(query.end),
                boundary=boundary,
                validators=validators,
                result=result,
                final_text={},
            ))
        else:
            self._panels.pop(key, None)
            if remember and boundary is not None:
                # A write raced the run; an empty/partial match
                # (boundary None) is just "nothing to remember".
                self.stats.invalidated += 1
        return result

    def _splice_panel(
        self, key: tuple, plan: _Delta, query: Query, delta: QueryResult
    ) -> QueryResult:
        """Phase C for one panel whose validators held: the cached
        prefix below the cut, then the delta."""
        st, cut, trim_lo = plan.st, plan.cut, plan.trim_lo
        cached_by_label = {
            tuple(sorted(s.group_tags.items())): s for s in st.result.series
        }
        series = []
        final_text = {}
        for s in delta.series:
            label = tuple(sorted(s.group_tags.items()))
            prev = cached_by_label.get(label)
            spliced = (
                s.slice
                if prev is None
                else _splice(prev.slice, s.slice, trim_lo, cut)
            )
            out_s = ResultSeries(
                metric=s.metric,
                group_tags=s.group_tags,
                slice=spliced,
                source_series=s.source_series,
            )
            series.append(out_s)
            if prev is not None and trim_lo is None:
                kept = len(spliced) - len(s.slice)
                extended = _splice_text(
                    prev, st.final_text.get(label), kept, s.slice
                )
                if extended is not None:
                    text, final_text[label], tail, tag = extended
                    remember_series_text(out_s, text)
                    remember_series_tag(out_s, tag)
                    prev_tag = cached_series_tag(prev)
                    if prev_tag is not None:  # some client may hold prev
                        remember_series_tail(out_s, prev_tag, kept, tail)
        out = QueryResult(
            query=query,
            series=tuple(series),
            scanned_points=delta.scanned_points,
        )
        self.stats.incremental_runs += 1
        boundary = (
            st.boundary if plan.boundary_now is None else plan.boundary_now
        )
        self._remember(key, st, query, out, boundary, final_text)
        return out

    def _remember(
        self,
        key: tuple,
        st: _PanelState,
        query: Query,
        result: QueryResult,
        boundary: int,
        final_text: dict,
    ) -> None:
        self._keep(key, _PanelState(
            start=int(query.start),
            end=int(query.end),
            boundary=boundary,
            validators=st.validators,
            result=result,
            final_text=final_text,
        ))

    def _keep(self, key: tuple, state: _PanelState) -> None:
        """Remember ``state`` as the most recently refreshed panel; past
        ``max_panels`` the least recently refreshed is forgotten."""
        self.stats.evicted += self._panels.put(key, state)
