"""Bounded-LRU query result cache validated by write generations.

The serving layer's hot path: dashboards re-issue the same panel
queries every few seconds, and most refreshes happen between writes to
the series they touch.  :class:`ResultCache` keeps their answers, keyed
by the :class:`~repro.tsdb.query.Query` itself; the serving store
(:class:`~repro.serve.refresh.CachingStore`, the outermost layer of the
store stack) looks every *unique* query of a request up in it before
anything runs, so ``run_many`` (and therefore the wire layer's
``handle_request``) is answered per query from the cache while dedup
and result ordering stay in the shared planner.  Writes are not
intercepted: the three primitives pass through to the layers below.

Correctness comes from generation validators, not timers:

- an entry remembers the metric's **write counter** (every mutation of
  any series of the metric, every series created or removed under it),
  the **metric generation** (series created/removed under the metric)
  and every matched series' **write generation** at capture time;
- while the metric's write counter holds still, the entry holds without
  a look at any series — the common case, a dashboard re-polled between
  writes, costs one counter read per metric;
- once it has moved, the per-series check decides exactly: any
  ``put``/``put_batch``/``delete_*`` touching a cached series bumps its
  generation, so the lookup sees the mismatch, drops the entry, and
  re-executes, while an entry none of whose series was written (another
  node, another city's series of the same metric) still hits —
  per-series invalidation without a reverse index;
- validators are captured *before* execution and re-checked *after*;
  if a concurrent write lands mid-run the result is returned but never
  cached (a stale result can never be stamped fresh).  Every counter
  moves before the columns it counts change, so the bracket holds for
  the metric counter exactly as for the series ones.

Hits return the very result object the underlying store produced, so
cached responses are byte-identical to uncached ``run_many`` output —
with its columns made read-only on insertion, since every holder of a
cached result holds the same arrays.

Validators are read through a :class:`ValidatorView`: one request's
look-ups and captures share one view (a 12-panel dashboard over four
metrics with nothing written since reads four counters and resolves no
series; one whose metrics were written resolves each of its 100 series
once, not once per panel), its inserts a second, fresh one.  The rule
that keeps this exact is the view's lifetime — **one phase of one
request**: made before the execution or after it and never carried
across the execution it brackets.  The panel state
(:mod:`repro.serve.refresh`) reads its validators the same way; a
request's *before* view is made by its look-up phase and travels with
it (:class:`~repro.serve.refresh.Request`) to its run phase — in the
server, from the event-loop thread to a worker thread — which reads it
only before it executes.  The hop carries the view, never an
execution, so the rule holds.

A reply is encoded from the result's columns each time it is sent
(:func:`~repro.tsdb.wire.encode_response_json`: one ``tobytes`` and one
base64 per column, nothing per point), so no reply text is kept.  What
a conditional reply needs (a client that says what it holds is answered
*not modified* or *the tail*, see :mod:`repro.serve.server`) is kept:
:func:`series_tag` leaves a 16-byte content digest of a series' head
and column bytes on the series object itself, made once per series
object — so it lives exactly as long as the cached result that holds
the series — and :func:`entry_validator` names an entry's whole
``series`` array by the digests of its members, so a hit by a holding
client costs a few look-ups and one short hash, never a pass
over the reply.  The validator is a *content* digest rather than a
per-process serial: it needs no state, it survives a reconnect, a
server restart and a failover to a byte-identical follower, and a
re-computed series that came out the same is still *not modified*.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from hashlib import blake2b
from typing import Sequence

from ..tsdb import wire
from ..tsdb.catalog import BoundedLRU, Resolution
from ..tsdb.interface import StoreApi
from ..tsdb.query import Query, QueryResult, ResultSeries
from ..tsdb.wire import CatalogRequest

#: Where a series keeps its digest and (a spliced series) what it was
#: spliced from: the instance dict, not dataclass fields, so equality,
#: hash and repr do not see them.
_TAG_ATTR = "_wire_tag"
_TAIL_ATTR = "_wire_tail"

#: Panel shapes kept at each end of a connection: the serving store
#: keeps this many panels' state, a client this many panels' last reply
#: entries.
HELD_PANELS = 256


def cached_series_tag(s: ResultSeries) -> bytes | None:
    """The digest :func:`series_tag` left on ``s``, if any."""
    return s.__dict__.get(_TAG_ATTR)


def series_tag(s: ResultSeries) -> bytes:
    """A 16-byte digest of ``s``'s head and column bytes — equal for two
    series only if their wire text is — taken once per series object.

    Planner results are immutable, and ``run_batch`` re-wraps a cached
    :class:`QueryResult` per request but shares its ``series`` tuple, so
    the series are the objects to remember on.  Two lane workers may
    digest the same series at once; both store the same bytes, so the
    last writer winning needs no lock.
    """
    tag = cached_series_tag(s)
    if tag is None:
        # the head as ``repr`` text: as exact as its JSON, a third the cost
        head = (s.metric, tuple(sorted(s.group_tags.items())))
        digest = blake2b(repr(head).encode(), digest_size=16)
        for column in wire.columns(s.timestamps, s.values):
            digest.update(column)
        tag = s.__dict__[_TAG_ATTR] = digest.digest()
    return tag


def _validator(tags: Sequence[bytes]) -> str:
    return blake2b(b"".join(tags), digest_size=16).hexdigest()


def entry_validator(series: Sequence[ResultSeries]) -> str:
    """The validator of one reply entry's ``series`` array: 32 hex
    characters, equal for two arrays only if their text is equal."""
    return _validator([series_tag(s) for s in series])


def remember_series_tail(s: ResultSeries, prev_tag: bytes, kept: int) -> None:
    """Note that ``s``'s first ``kept`` points are those of the series
    whose :func:`series_tag` is ``prev_tag``."""
    s.__dict__[_TAIL_ATTR] = (prev_tag, kept - kept % 3)


def entry_tail(series: Sequence[ResultSeries], held: str) -> list[int] | None:
    """The *tail* form of an entry for a client holding ``held`` — per
    series, how many leading points (a multiple of 3) the client keeps
    — or None unless every series was spliced from the array ``held``
    names (same series, same order)."""
    tails = [s.__dict__.get(_TAIL_ATTR) for s in series]
    if None in tails or _validator([t[0] for t in tails]) != held:
        return None
    return [keep for _, keep in tails]


@dataclass
class CacheStats:
    """Cumulative cache accounting."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0  # entries dropped on a validator mismatch
    evicted: int = 0  # entries dropped by LRU capacity pressure
    skipped: int = 0  # results not cached (write raced the execution)

    def as_dict(self) -> dict:
        return asdict(self)


class ValidatorView:
    """The reads validators are made of, each made once.

    What :meth:`ResultCache.capture` / ``_holds`` and the panel state's
    ``_capture`` / ``_holds`` / splice boundary ask of "the store" —
    ``_resolve``, the three metric counters (``metric_generation``,
    ``metric_write_generation``, ``metric_reshape_generation``),
    ``series_generation``, ``series_reshape_generation``,
    ``series_latest`` and :meth:`boundary` — answered over ``store``
    with one underlying read per filter, per metric counter and per
    series key.  A filter is a :attr:`~repro.tsdb.query.Query.filter`,
    and one ``_resolve``: the catalog's kept resolution, its keys *and*
    their column stores, so the per-series reads look no series up down
    the wrapper stack; they read the resolved series, so their counters
    are never older than the view.  A filter's boundary is read once per
    view, however many panels share the filter.

    **A view lives for one phase of one request**: it is made before an
    execution *or* after it, held by that request alone (a local, or
    the serving store's per-request :class:`~repro.serve.refresh.Request`
    between its look-up and its run phase, across a thread hop) and
    never kept across the execution it brackets.  That is the whole
    correctness argument — capture-before / check-after still brackets
    every scan of the request; what a view remembers is only what was
    read within its own side of the bracket, and a read made earlier on
    the *before* side (or later on the *after* side) is the more
    conservative one.
    """

    def __init__(self, store) -> None:
        self._store = store
        self._filters: dict[tuple, Resolution] = {}
        self._boundaries: dict[tuple, int | None] = {}  # filter -> boundary
        self._counters: dict[tuple[str, str], int] = {}  # (read, metric) -> value
        self._resolved: dict = {}  # series key -> SeriesStore | None

    def _resolve(self, filter_: tuple) -> Resolution:
        r = self._filters.get(filter_)
        if r is None:
            r = self._filters[filter_] = self._store._resolve(filter_)
            self._resolved.update(zip(r.keys, r.stores))
        return r

    def boundary(self, filter_: tuple) -> int | None:
        """Min last timestamp over the filter's series; None when
        nothing matches or a matched series is empty."""
        try:
            return self._boundaries[filter_]
        except KeyError:
            pass
        boundary: int | None = None
        for key in self._resolve(filter_).keys:
            latest = self.series_latest(key)
            if latest is None:
                boundary = None
                break
            boundary = latest[0] if boundary is None else min(boundary, latest[0])
        self._boundaries[filter_] = boundary
        return boundary

    def _counter(self, read: str, metric: str) -> int:
        try:
            return self._counters[read, metric]
        except KeyError:
            value = self._counters[read, metric] = getattr(self._store, read)(metric)
            return value

    def metric_generation(self, metric: str) -> int:
        return self._counter("metric_generation", metric)

    def metric_write_generation(self, metric: str) -> int:
        return self._counter("metric_write_generation", metric)

    def metric_reshape_generation(self, metric: str) -> int:
        return self._counter("metric_reshape_generation", metric)

    def _series(self, key):
        try:
            return self._resolved[key]
        except KeyError:
            series = self._resolved[key] = self._store._series(key)
            return series

    # derived where every store's are, over the one resolution above
    series_generation = StoreApi.series_generation
    series_reshape_generation = StoreApi.series_reshape_generation
    series_latest = StoreApi.series_latest


#: (metric write counter, metric generation, ((series key, series
#: generation), ...)) — the state of the world a cached result was
#: computed against.
_Validators = tuple


class ResultCache:
    """LRU of :class:`QueryResult` keyed by the :class:`Query` itself,
    validated against store write generations on every hit.

    The LRU body (look-up, insertion, eviction, :class:`CacheStats`)
    keys on the request and is written against :meth:`capture` /
    ``_holds``, two names :class:`CatalogCache` overrides to share it
    over a hashable :class:`~repro.tsdb.wire.CatalogRequest`.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.stats = CacheStats()
        # key -> (answer, validators)
        self._entries: BoundedLRU = BoundedLRU(capacity)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    def capture(self, store, q: Query) -> _Validators:
        """Snapshot the validators a result for ``q`` would depend on.

        Taken *before* executing the query: the metric's counters, then
        the matched series set and each member's generation.  New
        series that would change the match set bump the metric
        generation, so the pair (metric generation, per-series
        generations) is exactly "nothing this query can observe has
        changed"; the write counter, read first, is the short-cut that
        says the same for the whole metric at once.
        """
        writes = store.metric_write_generation(q.metric)
        metric_gen = store.metric_generation(q.metric)
        matched = store._resolve(q.filter).keys
        return (
            writes,
            metric_gen,
            tuple((key, store.series_generation(key)) for key in matched),
        )

    def _holds(self, store, q: Query, validators: _Validators) -> bool:
        writes, metric_gen, series_gens = validators
        if store.metric_write_generation(q.metric) == writes:
            return True
        if store.metric_generation(q.metric) != metric_gen:
            return False
        return all(
            store.series_generation(key) == gen for key, gen in series_gens
        )

    def lookup(self, store, request):
        """A still-valid cached answer for ``request``, or None.

        Invalid entries (a touched series was written or deleted, or
        the metric's series set changed) are dropped on sight — by
        whichever of two lane workers that saw the same one gets there
        first.
        """
        entry = self._entries.use(request)
        if entry is None:
            self.stats.misses += 1
            return None
        answer, validators = entry
        if not self._holds(store, request, validators):
            self._entries.pop(request, None)
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return answer

    def insert(self, store, request, validators: _Validators, answer) -> bool:
        """Cache a freshly computed answer, unless a write raced it.

        ``validators`` must come from :meth:`capture` taken before the
        execution; if they no longer hold the answer may already be
        stale and is *not* cached (returns False).
        """
        if not self._holds(store, request, validators):
            self.stats.skipped += 1
            return False
        self.stats.evicted += self._entries.put(request, (answer, validators))
        return True

    def clear(self) -> None:
        self._entries.clear()


class CatalogCache(ResultCache):
    """LRU of catalog responses validated by catalog generations.

    Catalog answers are tiny but hot — dashboards hammer the suggest
    surface while the user types — so the same generation discipline as
    :class:`ResultCache` applies: whole-catalog answers (``metrics``)
    validate against the store's global catalog generation, and
    metric-scoped answers validate against that metric's generation,
    which moves exactly when series appear under or vanish from the
    metric.  Capture-before / check-after keeps racing writes from
    stamping a stale answer fresh.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)

    def capture(self, store, req: CatalogRequest) -> _Validators:
        if req.op == "metrics":
            return ("catalog", store.catalog_generation())
        return ("metric", req.metric, store.metric_generation(req.metric))

    def _holds(
        self, store, req: CatalogRequest, validators: _Validators
    ) -> bool:
        if validators[0] == "catalog":
            return store.catalog_generation() == validators[1]
        _, metric, gen = validators
        return store.metric_generation(metric) == gen


def _freeze(result: QueryResult) -> None:
    """Make the columns of a result that is now shared — with the cache
    and with every later caller it answers — read-only: a write through
    one holder raises instead of changing what the others are served."""
    for s in result.series:
        s.timestamps.setflags(write=False)
        s.values.setflags(write=False)
