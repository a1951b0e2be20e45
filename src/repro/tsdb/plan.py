"""Query planning and batched execution: the v2 query engine.

The declarative surface (:class:`~repro.tsdb.query.Query`) is unchanged;
this module adds everything around it:

- :func:`select` / :class:`QueryBuilder` — fluent, immutable query
  construction (``store.select("air.co2.ppm").where(city="trondheim",
  node="*").range(t0, t1).downsample("5m-avg").rate().group_by("node")``);
- :func:`expr` / :class:`ExprQuery` — expression queries combining
  sub-queries arithmetically (``expr("a - b", a=..., b=...)`` for
  CO2-minus-baseline style dashboard panels);
- :func:`run_batch` — the batched executor behind ``store.run_many``:
  deduplicates queries, dispatches to the store's execution hook, and
  evaluates expressions over the batch results;
- :func:`run_unique_batch` — the one executor behind that hook on both
  stores: each distinct filter matches once, each touched series is
  scanned once over its covering range, and every query runs
  :func:`execute_plan` over the shared scans.  A store supplies only
  how it matches and how it scans one series, so
  :class:`~repro.tsdb.sharded.ShardedTSDB` (merged catalog, scan routed
  to the owning shard) and :class:`~repro.tsdb.database.TSDB` execute
  the *same* code over the same slices — results are bit-identical
  for any shard count.  What a batch holds: the scans for its whole
  length — they are read-only views of the stores' columns
  (:meth:`~repro.tsdb.series.SeriesStore.scan`), nothing to free — and
  the alignments of **one filter at a time**: only queries with the
  same filter can share one, so the batch runs filter by filter and a
  filter's cells, masks and concatenations die before the next
  filter's are made.  A result owns its columns: where a plan would
  hand a scan through unchanged it is copied out, once;
- :func:`execute_plan` — the seed scan → rate → group-by → aggregate →
  downsample plan, in stages (:func:`group_keys`,
  :func:`aggregate_across`, one downsample pass over the groups);
- :class:`ScanPlan` / :func:`align` — the physical helpers: one
  covering-range scan per touched series for a whole batch, one argsort
  alignment per group of slices (every point's column in the timestamp
  union; the aggregators fold the points, no series×instant matrix, and
  no NaN mask where no value is NaN — the alignment hands each column's
  point count over, see :mod:`~repro.tsdb.aggregators`).

The one-shot entry points (``store.run``, ``QueryBuilder.run``) are thin
shims over this planner: a single query is just a batch of one.
"""

from __future__ import annotations

import ast
import operator
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import aggregators
from .downsample import Downsample, apply_many as downsample_many
from .model import SeriesKey
from .query import Query, QueryError, QueryResult, ResultSeries, compute_rate
from .series import SeriesSlice


def _empty_slice() -> SeriesSlice:
    return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))


# ---------------------------------------------------------------------------
# Fluent builder
# ---------------------------------------------------------------------------


def select(metric: str, *, store: object | None = None) -> QueryBuilder:
    """Start a fluent query builder (optionally bound to a store).

    ``store.select(metric)`` is the bound form; the unbound form builds
    queries for :func:`run_batch` / ``run_many`` / :func:`expr`.
    """
    return QueryBuilder(_store=store, _metric=metric)


@dataclass(frozen=True)
class QueryBuilder:
    """Immutable fluent builder over :class:`Query`.

    Every method returns a *new* builder, so partial builders can be
    shared and forked (one base per dashboard, one fork per panel).
    ``build()`` validates eagerly through ``Query.__post_init__``;
    ``run()`` executes through the planner on the bound store.
    """

    _store: object | None = None
    _metric: str | None = None
    _start: int | None = None
    _end: int | None = None
    _tags: tuple[tuple[str, str], ...] = ()
    _aggregator: str = "avg"
    _downsample: str | Downsample | None = None
    _rate: bool = False
    _group_by: tuple[str, ...] = ()

    def where(
        self, tags: Mapping[str, str] | None = None, **more: str
    ) -> QueryBuilder:
        """Add tag filters (``"*"`` and ``"a|b"`` supported); merges."""
        merged = dict(self._tags)
        merged.update(tags or {})
        merged.update(more)
        return replace(self, _tags=tuple(sorted(merged.items())))

    def range(self, start: int, end: int) -> QueryBuilder:
        """Inclusive epoch-second time range."""
        return replace(self, _start=int(start), _end=int(end))

    def aggregate(self, name: str) -> QueryBuilder:
        """Cross-series aggregator (``"avg"``, ``"p95"``, ...)."""
        return replace(self, _aggregator=name)

    agg = aggregate

    def downsample(self, spec: str | Downsample) -> QueryBuilder:
        """Downsample spec, e.g. ``"5m-avg"`` or ``"1h-max-nan"``."""
        return replace(self, _downsample=spec)

    def rate(self, enabled: bool = True) -> QueryBuilder:
        """Emit the per-second first derivative (counter metrics)."""
        return replace(self, _rate=bool(enabled))

    def group_by(self, *keys: str) -> QueryBuilder:
        """Tag keys whose value combinations each get their own series."""
        return replace(self, _group_by=self._group_by + tuple(keys))

    def build(self) -> Query:
        """Materialize the declarative :class:`Query` (validates)."""
        if self._metric is None:
            raise QueryError("builder has no metric; start from select(metric)")
        if self._start is None or self._end is None:
            raise QueryError("builder has no time range; call .range(start, end)")
        return Query(
            self._metric,
            self._start,
            self._end,
            tags=dict(self._tags),
            aggregator=self._aggregator,
            downsample=self._downsample,
            rate=self._rate,
            group_by=self._group_by,
        )

    def run(self, store: object | None = None):
        """Build and execute on ``store`` (or the bound store)."""
        target = store if store is not None else self._store
        if target is None:
            raise QueryError(
                "builder is not bound to a store; use store.select(...) or "
                "pass one to run(store)"
            )
        return run_batch(target, [self.build()])[0]


# ---------------------------------------------------------------------------
# Expression queries: arithmetic over sub-query results
# ---------------------------------------------------------------------------

_BIN_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}


def _compile_formula(formula: str):
    """Parse a formula into (referenced names, evaluator).

    Only arithmetic over named sub-queries and numeric constants is
    allowed — no calls, attributes, subscripts, or comparisons — so a
    formula arriving over the wire cannot execute anything.
    """
    try:
        tree = ast.parse(formula, mode="eval")
    except SyntaxError as exc:
        raise QueryError(f"malformed expression {formula!r}: {exc}") from None
    names: set[str] = set()

    def check(node: ast.AST) -> None:
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            check(node.operand)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        ):
            pass
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        else:
            raise QueryError(
                f"expression {formula!r}: only +, -, *, /, %, ** over named "
                "sub-queries and numeric constants are allowed"
            )

    check(tree)
    if not names:
        raise QueryError(f"expression {formula!r} references no sub-queries")

    def evaluate(env: Mapping[str, np.ndarray]) -> np.ndarray:
        def ev(node: ast.AST):
            if isinstance(node, ast.Expression):
                return ev(node.body)
            if isinstance(node, ast.BinOp):
                return _BIN_OPS[type(node.op)](ev(node.left), ev(node.right))
            if isinstance(node, ast.UnaryOp):
                return _UNARY_OPS[type(node.op)](ev(node.operand))
            if isinstance(node, ast.Constant):
                return node.value
            return env[node.id]  # ast.Name; validated above

        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(ev(tree), dtype=np.float64)

    return names, evaluate


@dataclass(frozen=True)
class ExprQuery:
    """A formula over named sub-queries, e.g. ``a - b``.

    Build via :func:`expr`.  Missing instants are NaN before the
    arithmetic, so gaps propagate instead of silently zero-filling.
    Grouped operands must agree on their group labels; single-series
    operands broadcast across the groups (per-node CO2 minus the
    city-wide baseline in one expression).
    """

    formula: str
    operands: tuple[tuple[str, Query], ...]

    def __post_init__(self) -> None:
        names, _ = _compile_formula(self.formula)
        bound = {name for name, _ in self.operands}
        if names - bound:
            raise QueryError(
                f"expression {self.formula!r} references unbound operands: "
                f"{sorted(names - bound)}"
            )
        if bound - names:
            raise QueryError(
                f"expression {self.formula!r} never uses operands: "
                f"{sorted(bound - names)}"
            )

    def operand_map(self) -> dict[str, Query]:
        return dict(self.operands)


def expr(formula: str, **operands: Query | QueryBuilder) -> ExprQuery:
    """Combine sub-queries arithmetically: ``expr("a - b", a=..., b=...)``.

    Operands are :class:`Query` or (unbound) builders; the planner runs
    them inside the same batch as everything else, so an expression's
    sub-queries share matching and scans with sibling dashboard panels.
    """
    normalized = tuple(
        (name, _as_query(sub)) for name, sub in sorted(operands.items())
    )
    return ExprQuery(formula, normalized)


def _as_query(obj: Query | QueryBuilder) -> Query:
    if isinstance(obj, Query):
        return obj
    if isinstance(obj, QueryBuilder):
        return obj.build()
    raise QueryError(
        f"expected Query or QueryBuilder, got {type(obj).__name__}"
    )


@dataclass(frozen=True)
class ExprResult:
    """All series produced by one expression query."""

    expr: ExprQuery
    series: tuple[ResultSeries, ...]
    scanned_points: int

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[ResultSeries]:
        return iter(self.series)

    def single(self) -> ResultSeries:
        if len(self.series) != 1:
            raise QueryError(
                f"expected exactly one result series, got {len(self.series)}"
            )
        return self.series[0]

    def is_empty(self) -> bool:
        return all(len(s) == 0 for s in self.series)


def _evaluate_expr(
    eq: ExprQuery, results: Mapping[str, QueryResult]
) -> ExprResult:
    """Combine operand results through the formula, label by label."""
    names, evaluate = _compile_formula(eq.formula)
    ordered = sorted(names)
    per_op: dict[str, dict[tuple, ResultSeries]] = {}
    for name in ordered:
        per_op[name] = {
            tuple(sorted(s.group_tags.items())): s for s in results[name].series
        }
    # Operands producing one ungrouped series broadcast; all others must
    # agree on the exact label set.
    label_sets = {name: set(per_op[name]) for name in ordered}
    labeled = [name for name in ordered if label_sets[name] != {()}]
    if labeled:
        base = label_sets[labeled[0]]
        for name in labeled[1:]:
            if label_sets[name] != base:
                raise QueryError(
                    f"expression {eq.formula!r}: operands {labeled[0]!r} and "
                    f"{name!r} have mismatched group labels"
                )
        out_labels = sorted(base)
    else:
        out_labels = [()]

    out_series: list[ResultSeries] = []
    for label in out_labels:
        parts = {
            name: (
                per_op[name][label]
                if label_sets[name] != {()}
                else per_op[name][()]
            )
            for name in ordered
        }
        union = np.unique(
            np.concatenate([s.timestamps for s in parts.values()])
        ) if parts else np.empty(0, np.int64)
        env: dict[str, np.ndarray] = {}
        for name, s in parts.items():
            col = np.full(union.shape[0], np.nan)
            col[np.searchsorted(union, s.timestamps)] = s.values
            env[name] = col
        values = evaluate(env)
        if values.shape != union.shape:  # constant-dominated formula
            values = np.broadcast_to(values, union.shape).astype(np.float64)
        sources = tuple(
            sorted({k for s in parts.values() for k in s.source_series}, key=str)
        )
        out_series.append(
            ResultSeries(
                metric=eq.formula,
                group_tags=dict(label),
                slice=SeriesSlice(union, values),
                source_series=sources,
            )
        )
    scanned = sum(results[name].scanned_points for name in ordered)
    return ExprResult(eq, tuple(out_series), scanned)


# ---------------------------------------------------------------------------
# The logical plan, factored into reusable stages
# ---------------------------------------------------------------------------


def group_keys(
    query: Query, matched: Sequence[SeriesKey]
) -> dict[tuple[tuple[str, str], ...], list[SeriesKey]]:
    """Partition matched keys into group-by labels; keys sorted per group.

    A pure function of the key set — independent of the order ``matched``
    arrived in and of which shard each key lives on, so every store
    layout forms the same groups.
    """
    groups: dict[tuple, list[SeriesKey]] = defaultdict(list)
    for key in matched:
        label = tuple((g, key.tag(g, "")) for g in sorted(query.group_by))
        groups[label].append(key)
    return {label: sorted(keys, key=str) for label, keys in groups.items()}


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
        np.array([len(s) for s in slices]),
        col,
        np.concatenate([s.values for s in slices]),
        all_ts.shape[0],
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
    slices: list[SeriesSlice], agg, *, align_cache: dict | None = None
) -> SeriesSlice:
    """Combine several series into one by aggregating per timestamp.

    Timestamps are the union of all input timestamps; at each instant the
    aggregator sees the values of every series that has a point exactly
    there.  (OpenTSDB interpolates; our feeds are bucket-aligned by the
    ingest pipeline, so exact alignment is the common case and
    interpolation is left to downsample fill policies.)

    ``agg`` is a *columnar* aggregator (see
    :func:`~repro.tsdb.aggregators.get_columnar`) and the result is, bit
    for bit, ``agg`` of the series×instant matrix — computed from the
    aligned points alone (:func:`~repro.tsdb.aggregators.reduce_cells`).

    ``align_cache`` is the batched executor's cross-query win: queries
    in one batch that aggregate the *same* slice objects (a dashboard's
    ``avg`` and ``dev`` panels over one metric) share the alignment and
    its first pass and differ only in the final reduction.  Keys are
    slice identities, so the cache is only valid while the batch holds
    its prepared slices — callers pass a dict that lives as long as the
    queries that can share do (:func:`run_unique_batch`: one filter).

    A lone series that is its own aggregate comes back as it went in —
    the scan's read-only view of the store, when that is what it was.
    """
    slices = [s for s in slices if len(s) > 0]
    if not slices:
        return _empty_slice()
    if len(slices) == 1 and agg not in aggregators.NON_IDENTITY_COLUMNAR:
        # Sound only where aggregating one series is the identity —
        # count (→ 1-where-finite) and dev (→ 0) take the full path, or
        # a group whose siblings fall away (rate on a 1-point series)
        # would return raw values instead.
        only = slices[0]
        if agg in aggregators.ZERO_FOLDED:
            return SeriesSlice(only.timestamps, only.values + 0.0)
        return only
    all_ts, cells = _aligned_for(slices, align_cache)
    return SeriesSlice(all_ts, aggregators.reduce_cells(agg, cells))


def _owned(column: np.ndarray) -> np.ndarray:
    return column if column.flags.writeable else column.copy()


def execute_plan(
    query: Query,
    matched: Sequence[SeriesKey],
    scan: Callable[[SeriesKey], SeriesSlice],
    *,
    align_cache: dict | None = None,
) -> QueryResult:
    """The group-by → aggregate → downsample plan over scanned slices.

    ``matched`` is the set of series the query touches and ``scan``
    produces each one's time-sorted slice; everything downstream of the
    scan is store-layout-independent.  Every store runs its queries
    through these same stages, so results are bit-identical regardless
    of how series are partitioned: groups form from the key set alone
    and slices always aggregate in sorted key order.
    """
    scanned = 0
    groups = sorted(group_keys(query, matched).items())
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
    agg = aggregators.get_columnar(query.aggregator)
    reduced = [
        aggregate_across(slices, agg, align_cache=align_cache) for slices in prepared
    ]
    ds = query.parsed_downsample()
    if ds is not None:  # all groups in one pass
        reduced = downsample_many(reduced, ds, query.start, query.end)
    else:
        # A result owns its columns.  Undownsampled, a lone series is
        # still the scan's view of the store's (read-only marks it):
        # kept in a result cache it would pin the whole buffer.
        reduced = [
            SeriesSlice(_owned(sl.timestamps), _owned(sl.values)) for sl in reduced
        ]
    series_out = [
        ResultSeries(
            metric=query.metric,
            group_tags=dict(label),
            slice=combined,
            source_series=tuple(keys),
        )
        for (label, keys), combined in zip(groups, reduced)
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


def _filter_key(q: Query) -> tuple:
    """What a query matches series by: two queries with equal keys
    touch the same series, and only those can share an alignment."""
    return (q.metric, tuple(sorted(q.tags.items())))


def match_batch(
    match: Callable[[str, Mapping[str, str]], list],
    queries: Sequence[Query],
) -> list[list]:
    """Matched series per query, computing each distinct filter once."""
    cache: dict[tuple, list] = {}
    out: list[list] = []
    for q in queries:
        mk = _filter_key(q)
        if mk not in cache:
            cache[mk] = match(q.metric, q.tags)
        out.append(cache[mk])
    return out


def run_unique_batch(
    queries: Sequence[Query],
    match: Callable[[str, Mapping[str, str]], list[SeriesKey]],
    scan: Callable[[SeriesKey, int, int], SeriesSlice],
) -> list[QueryResult]:
    """Execute deduplicated queries over shared matching and scans.

    The executor behind every store's ``_run_unique_batch`` hook: each
    distinct (metric, tags) filter goes through ``match`` once, each
    touched series through ``scan`` once over the covering range of
    every query that needs it, and panels aggregating the same slices
    share one alignment.  Results align with ``queries``.

    The scans are views and cost nothing to hold for the whole batch;
    an alignment is as large as the points it aligns, and only queries
    with the same filter can share one.  So the batch runs one filter
    at a time, in order of first appearance, and each filter's
    alignments are dropped before the next one's are made.
    """
    matches = match_batch(match, queries)
    scans = ScanPlan()
    by_filter: dict[tuple, list[int]] = {}
    for i, (q, keys) in enumerate(zip(queries, matches)):
        by_filter.setdefault(_filter_key(q), []).append(i)
        for key in keys:
            scans.need(key, q.start, q.end)
    scans.resolve(scan)
    results: list[QueryResult | None] = [None] * len(queries)
    for members in by_filter.values():
        align_cache: dict = {}  # the previous filter's dies here
        for i in members:
            q = queries[i]
            results[i] = execute_plan(
                q,
                matches[i],
                lambda key, q=q: scans.slice_for(key, q.start, q.end),
                align_cache=align_cache,
            )
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The batched executor behind store.run_many
# ---------------------------------------------------------------------------


def _canonical_key(q: Query) -> tuple:
    """Dedup identity of a query (spelling-insensitive where safe)."""
    ds = q.parsed_downsample()
    return (
        q.metric,
        tuple(sorted(q.tags.items())),
        int(q.start),
        int(q.end),
        q.aggregator,
        None if ds is None else (ds.width, ds.agg, ds.fill.value),
        bool(q.rate),
        tuple(sorted(q.group_by)),
    )


def run_batch(
    store: object,
    queries: Sequence[Query | QueryBuilder | ExprQuery],
) -> list[QueryResult | ExprResult]:
    """Plan and execute a batch of queries together.

    Accepts a mix of :class:`Query`, builders, and :class:`ExprQuery`;
    duplicate queries (including expression operands equal to sibling
    panels) execute once.  Execution goes through the store's
    ``_run_unique_batch`` hook — :func:`run_unique_batch` on both
    :class:`~repro.tsdb.database.TSDB` and
    :class:`~repro.tsdb.sharded.ShardedTSDB`, the result cache on the
    serving wrappers.  Results align with the input order.
    """
    specs: list[tuple] = []
    flat: list[Query] = []
    index: dict[tuple, int] = {}

    def intern(q: Query) -> int:
        ck = _canonical_key(q)
        i = index.get(ck)
        if i is None:
            i = len(flat)
            index[ck] = i
            flat.append(q)
        return i

    for item in queries:
        if isinstance(item, QueryBuilder):
            item = item.build()
        if isinstance(item, Query):
            specs.append(("q", item, intern(item)))
        elif isinstance(item, ExprQuery):
            specs.append(
                ("expr", item, {name: intern(sub) for name, sub in item.operands})
            )
        else:
            raise QueryError(
                "run_many items must be Query, QueryBuilder, or ExprQuery; "
                f"got {type(item).__name__}"
            )

    flat_results = store._run_unique_batch(flat)

    out: list[QueryResult | ExprResult] = []
    for kind, item, ref in specs:
        if kind == "q":
            res = flat_results[ref]
            if res.query is not item:
                res = QueryResult(item, res.series, res.scanned_points)
            out.append(res)
        else:
            out.append(
                _evaluate_expr(
                    item, {name: flat_results[i] for name, i in ref.items()}
                )
            )
    return out
