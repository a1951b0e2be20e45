"""Bounded-LRU query result cache validated by write generations.

The serving layer's hot path: dashboards re-issue the same panel
queries every few seconds, and most refreshes happen between writes to
the series they touch.  :class:`CachingStore` wraps any
:class:`~repro.tsdb.interface.TimeSeriesStore` — as the outermost layer
of the store stack — and intercepts the batched execution hook, so
``run_many`` (and therefore the wire layer's ``handle_request``) sees
cache hits per *unique* query while expression recomposition, dedup,
and result ordering stay in the shared planner.  Writes are not
intercepted: the three primitives pass through to the layers below.

Correctness comes from generation validators, not timers:

- an entry remembers the **metric generation** (series created/removed
  under the metric) and every matched series' **write generation** at
  capture time;
- any ``put``/``put_batch``/``delete_*`` touching a cached series bumps
  its generation, so the next lookup sees the mismatch, drops the
  entry, and re-executes — exact per-series invalidation without a
  reverse index;
- validators are captured *before* execution and re-checked *after*;
  if a concurrent write lands mid-run the result is returned but never
  cached (a stale result can never be stamped fresh).

Hits return the very result object the underlying store produced, so
cached responses are byte-identical to uncached ``run_many`` output —
with its columns made read-only on insertion, since every holder of a
cached result holds the same arrays.

Validators are read through a :class:`ValidatorView`: one request's
look-ups and captures share one view (a 12-panel dashboard over four
metrics resolves each of its 100 series once, not once per panel), its
inserts a second, fresh one.  The rule that keeps this exact is the
view's lifetime — **one phase of one request**: made before the
execution or after it, a local, never kept on an object and never
carried across the execution it brackets.  The refresher
(:mod:`repro.serve.refresh`) reads its validators the same way.

The reply *text* is cached the same way, with no second cache:
:func:`series_text` keeps a result series' encoded JSON on the series
object itself, so the text of a cached result lives exactly as long as
its entry does — dropped with it on eviction or invalidation — and a
hit costs the server a ``bytes.join``.

So is what a conditional reply needs (a client that says what it holds
is answered *not modified* or *the tail*, see :mod:`repro.serve.server`):
:func:`series_tag` keeps a 16-byte content digest beside the text, made
once per series object, and :func:`entry_validator` names an entry's
whole ``series`` array by the digests of its members — so a hit by a
holding client costs a few look-ups and one short hash, never a pass
over the reply.  The validator is a *content* digest rather than a
per-process serial: it needs no state, it survives a reconnect, a
server restart and a failover to a byte-identical follower, and a
re-computed series that came out the same is still *not modified*.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from hashlib import blake2b
from typing import Sequence

from ..tsdb import wire
from ..tsdb.interface import StoreApi, StoreWrapper
from ..tsdb.plan import _canonical_key
from ..tsdb.query import Query, QueryResult, ResultSeries
from ..tsdb.wire import CatalogRequest

#: Where a series keeps its encoded text, the digest of that text and
#: (a spliced series) what it was spliced from: the instance dict, not
#: dataclass fields, so equality, hash and repr do not see them.
_TEXT_ATTR = "_wire_json"
_TAG_ATTR = "_wire_tag"
_TAIL_ATTR = "_wire_tail"


def cached_series_text(s: ResultSeries) -> bytes | None:
    """The text :func:`series_text` left on ``s``, if any."""
    return s.__dict__.get(_TEXT_ATTR)


def remember_series_text(s: ResultSeries, text: bytes) -> None:
    """Attach ``text`` — which must equal ``wire.series_json(s)``."""
    s.__dict__[_TEXT_ATTR] = text


def series_text(s: ResultSeries) -> bytes:
    """``wire.series_json(s)``, encoded once per series object.

    Planner results are immutable, and ``run_batch`` re-wraps a cached
    :class:`QueryResult` per request but shares its ``series`` tuple, so
    the series are the objects to remember on.  Two lane workers may
    encode the same series at once; both store the same bytes, so the
    last writer winning needs no lock.
    """
    text = cached_series_text(s)
    if text is None:
        text = wire.series_json(s)
        remember_series_text(s, text)
    return text


def cached_series_tag(s: ResultSeries) -> bytes | None:
    """The digest :func:`series_tag` left on ``s``, if any."""
    return s.__dict__.get(_TAG_ATTR)


def text_digest(text: bytes):
    """The running hash :func:`series_tag` is the ``digest()`` of; the
    refresher carries one over a spliced series' final prefix."""
    return blake2b(text, digest_size=16)


def remember_series_tag(s: ResultSeries, tag: bytes) -> None:
    """Attach ``tag`` — which must equal ``text_digest(series_text(s))``'s."""
    s.__dict__[_TAG_ATTR] = tag


def series_tag(s: ResultSeries) -> bytes:
    """A 16-byte digest of ``series_text(s)``, taken once per series
    object and dropped with it, like the text it names."""
    tag = cached_series_tag(s)
    if tag is None:
        tag = text_digest(series_text(s)).digest()
        remember_series_tag(s, tag)
    return tag


def _validator(tags: Sequence[bytes]) -> str:
    return blake2b(b"".join(tags), digest_size=16).hexdigest()


def entry_validator(series: Sequence[ResultSeries]) -> str:
    """The validator of one reply entry's ``series`` array: 32 hex
    characters, equal for two arrays only if their text is equal."""
    return _validator([series_tag(s) for s in series])


def remember_series_tail(
    s: ResultSeries, prev_tag: bytes, kept: int, tail: bytes
) -> None:
    """Note that ``s``'s ``dps`` are the first ``kept`` entries of the
    series whose :func:`series_tag` is ``prev_tag``, then ``tail``
    (:func:`~repro.tsdb.wire.dps_json` text)."""
    s.__dict__[_TAIL_ATTR] = (prev_tag, kept, tail)


def entry_tail(series: Sequence[ResultSeries], held: str) -> bytes | None:
    """The *tail* form of an entry for a client holding ``held``, or
    None unless every series was spliced from the array ``held`` names
    (same series, same order)."""
    tails = [s.__dict__.get(_TAIL_ATTR) for s in series]
    if None in tails or _validator([t[0] for t in tails]) != held:
        return None
    return wire.tail_json([(kept, tail) for _, kept, tail in tails])


class BoundedLRU(OrderedDict):
    """A mapping that forgets its least recently used key past
    ``capacity`` — the one LRU body under the result caches, the
    refresher's panel table and the client's held replies."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__()
        self.capacity = int(capacity)

    def use(self, key):
        """The value under ``key``, now the most recently used; None
        when absent (or dropped by another thread meanwhile)."""
        try:
            self.move_to_end(key)
            return self[key]
        except KeyError:
            return None

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
    """The five reads validators are made of, each made once.

    What :meth:`ResultCache.capture` / ``_holds`` and the refresher's
    ``_capture`` / ``_holds`` ask of "the store" — ``_match``,
    ``metric_generation``, ``series_generation``,
    ``series_reshape_generation``, ``series_latest`` — answered over
    ``store`` with one underlying read per filter, per metric and per
    series key (the last three share one ``_series(key)`` resolution,
    instead of one walk down the wrapper stack per read per panel; the
    counters are read off the resolved series, so they are never older
    than the view).

    **A view lives for one phase of one request**: it is a local, made
    before an execution *or* after it, never stored on ``self`` and never
    kept across the execution it brackets.  That is the whole
    correctness argument — capture-before / check-after still brackets
    every scan of the request; what a view remembers is only what was
    read within its own side of the bracket, and a read made earlier on
    the *before* side (or later on the *after* side) is the more
    conservative one.
    """

    def __init__(self, store) -> None:
        self._store = store
        self._matches: dict[tuple, list] = {}
        self._metric_generations: dict[str, int] = {}
        self._resolved: dict = {}  # series key -> SeriesStore | None

    def _match(self, metric: str, tags) -> list:
        mk = (metric, tuple(sorted(tags.items())))
        matched = self._matches.get(mk)
        if matched is None:
            matched = self._matches[mk] = self._store._match(metric, tags)
        return matched

    def metric_generation(self, metric: str) -> int:
        gen = self._metric_generations.get(metric)
        if gen is None:
            gen = self._metric_generations[metric] = (
                self._store.metric_generation(metric)
            )
        return gen

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


#: (metric generation, ((series key, series generation), ...)) — the
#: state of the world a cached result was computed against.
_Validators = tuple


class ResultCache:
    """LRU of :class:`QueryResult` keyed by the planner's canonical
    query key, validated against store write generations on every hit.

    The LRU body (look-up, insertion, eviction, :class:`CacheStats`) is
    written against ``_key`` / :meth:`capture` / ``_holds``, three names
    :class:`CatalogCache` overrides to share it.
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

    _key = staticmethod(_canonical_key)

    def capture(self, store, q: Query) -> _Validators:
        """Snapshot the validators a result for ``q`` would depend on.

        Taken *before* executing the query: the matched series set and
        each member's generation.  New series that would change the
        match set bump the metric generation, so the pair
        (metric generation, per-series generations) is exactly "nothing
        this query can observe has changed".
        """
        matched = store._match(q.metric, q.tags)
        return (
            store.metric_generation(q.metric),
            tuple((key, store.series_generation(key)) for key in matched),
        )

    def _holds(self, store, q: Query, validators: _Validators) -> bool:
        metric_gen, series_gens = validators
        if store.metric_generation(q.metric) != metric_gen:
            return False
        return all(
            store.series_generation(key) == gen for key, gen in series_gens
        )

    def lookup(self, store, request):
        """A still-valid cached answer for ``request``, or None.

        Invalid entries (a touched series was written or deleted, or
        the metric's series set changed) are dropped on sight.
        """
        key = self._key(request)
        entry = self._entries.use(key)
        if entry is None:
            self.stats.misses += 1
            return None
        answer, validators = entry
        if not self._holds(store, request, validators):
            del self._entries[key]
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
        self.stats.evicted += self._entries.put(
            self._key(request), (answer, validators)
        )
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

    _key = staticmethod(CatalogRequest.cache_key)

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


class CachingStore(StoreWrapper):
    """A store wrapper serving ``run_many`` through a :class:`ResultCache`.

    Overrides the planner's ``_run_unique_batch`` hook and nothing else:
    per unique query the cache answers or the miss set executes as one
    batch on the wrapped store (keeping shared matching/scans for the
    misses).  Every primitive, write or read, passes through to the
    wrapped store, so a ``CachingStore`` is a drop-in
    :class:`TimeSeriesStore` and writes through it invalidate exactly the
    entries they touch.  It is the outermost layer of the store stack:
    ``CachingStore(DurableStore(ReplicatedStore(store)))``.
    """

    def __init__(self, store, *, capacity: int = 128) -> None:
        super().__init__(store)
        self.cache = ResultCache(capacity)

    def _run_unique_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        results: list[QueryResult | None] = [None] * len(queries)
        miss: list[int] = []
        before = ValidatorView(self._store)
        for i, q in enumerate(queries):
            hit = self.cache.lookup(before, q)
            if hit is not None:
                results[i] = hit
            else:
                miss.append(i)
        if miss:
            miss_qs = [queries[i] for i in miss]
            validators = [self.cache.capture(before, q) for q in miss_qs]
            out = self._run_uncached_batch(miss_qs)
            after = ValidatorView(self._store)
            for i, q, v, res in zip(miss, miss_qs, validators, out):
                results[i] = res
                if self.cache.insert(after, q, v, res):
                    _freeze(res)
        return results  # type: ignore[return-value]

    def _run_uncached_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """What a miss costs: the batch on the wrapped store, nothing
        looked up and nothing inserted (the refresher's deltas run
        here — no later request can ask for a delta's window again)."""
        return self._store._run_unique_batch(queries)
