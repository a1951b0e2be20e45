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
    cached_series_tag,
    cached_series_text,
    remember_series_tail,
    remember_series_text,
)


@dataclass
class RefreshStats:
    """Cumulative refresher accounting."""

    full_runs: int = 0
    incremental_runs: int = 0
    cache_only_runs: int = 0  # window advanced, but nothing to rescan
    invalidated: int = 0  # panel state dropped on a validator mismatch
    evicted: int = 0  # panel state dropped as the least recently refreshed

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _PanelState:
    """What the last refresh of one panel knew."""

    start: int
    end: int
    boundary: int  # min last-timestamp over sources, before the run
    metric_gen: int
    reshape_gens: tuple  # ((series key, reshape generation), ...)
    result: QueryResult
    #: Per series label: (leading points below the cut this result was
    #: spliced at, where their ``dps`` entries end in the series' text).
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
    prev: ResultSeries, known: tuple[int, int] | None, kept: int,
    delta: SeriesSlice,
) -> tuple[bytes, tuple[int, int], bytes] | None:
    """Text of ``prev``'s first ``kept`` points followed by the delta's.

    ``known`` says how much of ``prev``'s text is already the encoding
    of a final prefix; only the ``kept - known[0]`` points that became
    final since are encoded beside the delta.  Returns the text of the
    spliced series, its own ``known`` and the delta's ``dps`` text, or
    None when ``prev`` was never encoded (nobody replies with these
    results).
    """
    text = cached_series_text(prev)
    if text is None:
        return None
    if known is not None and known[0] <= kept:
        n, end = known
        final = text[:end]
    else:
        n, final = 0, wire.series_head_json(prev)
    newly_final = wire.dps_json(prev.timestamps[n:kept], prev.values[n:kept])
    if newly_final:
        final += (b", " if n else b"") + newly_final
    tail = wire.dps_json(delta.timestamps, delta.values)
    sep = b", " if kept and tail else b""
    return final + sep + tail + wire.SERIES_JSON_TAIL, (kept, len(final)), tail


class IncrementalRefresher:
    """Per-panel incremental execution over one store.

    ``run(query)`` always returns the same series a fresh
    ``store.run(query)`` would; it is a refresher, not a snapshot — the
    incremental path merely avoids rescanning finalized history.  One
    instance serves many panels (state is keyed per panel shape).
    """

    def __init__(self, store, *, max_panels: int = 256) -> None:
        self._store = store
        self._panels: BoundedLRU = BoundedLRU(max_panels)  # key -> _PanelState
        self.stats = RefreshStats()

    # -- validators ------------------------------------------------------
    def _capture(self, q: Query):
        """(metric gen, reshape gens, boundary) before an execution."""
        store = self._store
        matched = store._match(q.metric, q.tags)
        gens = tuple(
            (key, store.series_reshape_generation(key)) for key in matched
        )
        boundary: int | None = None
        for key in matched:
            latest = store.series_latest(key)
            if latest is None:
                return store.metric_generation(q.metric), gens, None
            boundary = latest[0] if boundary is None else min(boundary, latest[0])
        return store.metric_generation(q.metric), gens, boundary

    def _holds(self, q: Query, metric_gen: int, reshape_gens: tuple) -> bool:
        store = self._store
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
        """One ``refresh`` request: every panel through :meth:`run`.

        The shared planner dedups the batch and evaluates expression
        panels over their refreshed operands, as it does for any store.
        """
        return run_batch(self, queries)

    def _run_unique_batch(self, queries: list[Query]) -> list[QueryResult]:
        return [self.run(q) for q in queries]

    def run(self, query: Query) -> QueryResult:
        ds = query.parsed_downsample()
        width = None if ds is None else ds.width
        splice_safe = not query.rate and (
            ds is None or ds.fill in (FillPolicy.NONE, FillPolicy.ZERO)
        )
        key = _panel_key(query)
        st = self._panels.get(key)
        if splice_safe and st is not None and self._window_advances(st, query, width):
            if self._holds(query, st.metric_gen, st.reshape_gens):
                return self._run_incremental(key, st, query, width)
            self._panels.pop(key, None)
            self.stats.invalidated += 1
        elif st is not None and not splice_safe:
            # Never stateful for rate/previous/linear panels.
            self._panels.pop(key, None)
        return self._run_full(key, query, remember=splice_safe)

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

    def _run_full(self, key: tuple, query: Query, *, remember: bool) -> QueryResult:
        metric_gen, reshape_gens, boundary = self._capture(query)
        result = self._store.run_many([query])[0]
        self.stats.full_runs += 1
        if (
            remember
            and boundary is not None
            and self._holds(query, metric_gen, reshape_gens)
        ):
            self._keep(key, _PanelState(
                start=int(query.start),
                end=int(query.end),
                boundary=boundary,
                metric_gen=metric_gen,
                reshape_gens=reshape_gens,
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

    def _run_incremental(
        self, key: tuple, st: _PanelState, query: Query, width: int | None
    ) -> QueryResult:
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
            return self._run_full(key, query, remember=True)

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
        _, _, boundary_now = self._capture(query)
        delta = self._store.run_many([delta_q])[0]
        if not self._holds(query, st.metric_gen, st.reshape_gens):
            # A reshaping write raced the delta scan; the splice would
            # mix epochs.  Drop the state and recompute from scratch.
            self._panels.pop(key, None)
            self.stats.invalidated += 1
            return self._run_full(key, query, remember=True)

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
                    text, final_text[label], tail = extended
                    remember_series_text(out_s, text)
                    prev_tag = cached_series_tag(prev)
                    if prev_tag is not None:  # some client may hold prev
                        remember_series_tail(out_s, prev_tag, kept, tail)
        out = QueryResult(
            query=query,
            series=tuple(series),
            scanned_points=delta.scanned_points,
        )
        self.stats.incremental_runs += 1
        boundary = st.boundary if boundary_now is None else boundary_now
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
            metric_gen=st.metric_gen,
            reshape_gens=st.reshape_gens,
            result=result,
            final_text=final_text,
        ))

    def _keep(self, key: tuple, state: _PanelState) -> None:
        """Remember ``state`` as the most recently refreshed panel; past
        ``max_panels`` the least recently refreshed is forgotten."""
        self.stats.evicted += self._panels.put(key, state)
