"""The store interface: what it means to "be a TSDB" in this codebase.

PR 1 made :class:`~repro.tsdb.batch.PointBatch` the unit of flow through
the ingest pipeline; this module makes the *store* pluggable.  Everything
downstream of the dataport — persistence, retention, dashboards,
analytics — talks to a :class:`TimeSeriesStore`, so the single-process
:class:`~repro.tsdb.database.TSDB` and the hash-partitioned
:class:`~repro.tsdb.sharded.ShardedTSDB` are interchangeable.

:class:`StoreApi` is the concrete half: convenience methods every store
gets for free, implemented purely in terms of the protocol surface —
including every write other than the three primitives and every read
other than ``catalog``, ``_series`` and the three whole-store counts.
:class:`StoreWrapper` is the one base of the layers stacked on a store
(journal, replication tee, result cache).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from .batch import BatchBuilder, PointBatch
from .catalog import MergedCatalog, SeriesCatalog
from .model import DataPoint, SeriesKey
from .plan import ExprQuery, ExprResult, QueryBuilder, run_batch, select as _select
from .plan import _empty_slice, run_unique_batch
from .query import Query, QueryResult
from .series import SeriesSlice, SeriesStore


@runtime_checkable
class TimeSeriesStore(Protocol):
    """Structural interface shared by :class:`TSDB` and :class:`ShardedTSDB`.

    The dataport's :class:`~repro.dataport.app.BatchingTsdbWriter`,
    persistence (``snapshot``/``dumps``/``load(into=...)``), retention
    policies, dashboards, and analytics entry points all accept any
    object satisfying this protocol.

    Writes are three primitives + derived: ``put_batch``,
    ``delete_before`` and ``delete_series_before`` are what a store (or
    a wrapper around one) implements; ``put``, ``put_point``,
    ``put_series`` and ``put_many`` are :class:`StoreApi`'s, in terms of
    ``put_batch``.

    Reads are the same shape: a store supplies its ``catalog`` (which
    series are live, and the counters of when that changed), the keyed
    lookup ``_series`` (a live series' columns, or None) and three whole-
    store counts; every other read is :class:`StoreApi`'s, over those.
    """

    # -- writes: the three primitives (a batch block, two marker kinds) --
    def put_batch(self, batch: PointBatch) -> int: ...

    def delete_before(
        self, cutoff: int, *, exclude_suffix: str | None = None
    ) -> int: ...

    def delete_series_before(self, key: SeriesKey, cutoff: int) -> int: ...

    # -- writes: derived (StoreApi, in terms of put_batch) ---------------
    def put(
        self,
        metric: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> SeriesKey: ...

    def put_point(self, point: DataPoint) -> SeriesKey: ...

    def put_series(
        self,
        metric: str,
        timestamps,
        values,
        tags: Mapping[str, str] | None = None,
    ) -> SeriesKey: ...

    def put_many(self, points: Iterable[DataPoint]) -> int: ...

    # -- reads: the primitives (catalog, keyed lookup, three counts) -----
    @property
    def catalog(self) -> SeriesCatalog | MergedCatalog: ...

    def _series(self, key: SeriesKey) -> SeriesStore | None: ...

    @property
    def point_count(self) -> int: ...

    def exact_point_count(self) -> int: ...

    @property
    def write_count(self) -> int: ...

    # -- reads: derived (StoreApi, in terms of catalog and _series) ------
    @property
    def series_count(self) -> int: ...

    def metrics(self) -> list[str]: ...

    def series_for_metric(self, metric: str) -> list[SeriesKey]: ...

    def suggest_metrics(self, prefix: str = "") -> list[str]: ...

    def suggest_tag_values(self, metric: str, tag_key: str) -> list[str]: ...

    def tag_keys(self, metric: str) -> list[str]: ...

    def tag_values(self, metric: str, tag_key: str) -> list[str]: ...

    def cardinality(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> int: ...

    def catalog_generation(self) -> int: ...

    def metric_generation(self, metric: str) -> int: ...

    def series_generation(self, key: SeriesKey) -> int: ...

    def series_reshape_generation(self, key: SeriesKey) -> int: ...

    def series_latest(self, key: SeriesKey) -> tuple[int, float] | None: ...

    def series_slice(
        self, key: SeriesKey, start: int | None = None, end: int | None = None
    ) -> SeriesSlice: ...

    def last(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> dict[SeriesKey, tuple[int, float]]: ...

    def run(self, query: Query) -> QueryResult: ...

    def run_many(
        self, queries: Sequence[Query | QueryBuilder | ExprQuery]
    ) -> list[QueryResult | ExprResult]: ...

    def select(self, metric: str) -> QueryBuilder: ...

    def iter_series(
        self, start: int | None = None, end: int | None = None
    ) -> Iterator[tuple[SeriesKey, SeriesSlice]]: ...

    def iter_points(self) -> Iterator[DataPoint]: ...


class StoreApi:
    """Store-agnostic convenience surface, mixed into every store.

    Implemented entirely against :class:`TimeSeriesStore` methods, so a
    new store implementation only provides the primitive operations.
    """

    # -- derived reads: which series are live (self.catalog) -------------
    @property
    def series_count(self) -> int:
        return len(self.catalog)

    def metrics(self) -> list[str]:
        return self.catalog.metrics()

    def series_for_metric(self, metric: str) -> list[SeriesKey]:
        return self.catalog.series(metric)

    def suggest_metrics(self, prefix: str = "") -> list[str]:
        return [m for m in self.metrics() if m.startswith(prefix)]

    def suggest_tag_values(self, metric: str, tag_key: str) -> list[str]:
        return self.tag_values(metric, tag_key)

    def tag_keys(self, metric: str) -> list[str]:
        """Tag keys appearing on any live series of ``metric``, sorted."""
        return self.catalog.tag_keys(metric)

    def tag_values(self, metric: str, tag_key: str) -> list[str]:
        """Distinct live values of one tag key under ``metric``, sorted."""
        return self.catalog.tag_values(metric, tag_key)

    def cardinality(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> int:
        """Number of live series matching ``(metric, tags)`` — O(result)."""
        return self.catalog.cardinality(metric, tags)

    def catalog_generation(self) -> int:
        """Counter of series created/removed anywhere in the store.

        Whole-catalog answers (``metrics()``) are valid while it holds
        still; metric-scoped answers use :meth:`metric_generation`.
        """
        return self.catalog.generation

    def metric_generation(self, metric: str) -> int:
        """Counter of series created/removed under ``metric``.

        A cached match set (and therefore grouping) for any filter on
        this metric is valid only while this value holds still.
        """
        return self.catalog.metric_generation(metric)

    def _match(self, metric: str, tags: Mapping[str, str]) -> list[SeriesKey]:
        """Series matching a filter, in canonical sorted order.

        Resolved entirely in the catalog's postings: exact values
        intersect, ``"a|b"`` alternations union, ``"*"`` uses has-key
        postings, and ``key.matches`` runs only over the narrowed pool
        as a final exactness check — O(result), not O(series-under-
        metric), deterministic regardless of set iteration order, and
        identical to the single store's for any shard count.
        """
        return self.catalog.match(metric, tags)

    # -- derived reads: one series (self._series) ------------------------
    def series_generation(self, key: SeriesKey) -> int:
        """Mutation counter of one series; 0 for unknown keys.

        Monotonic per live series: any write or retention delete bumps
        it, so a cached query result is exactly as fresh as the
        generations of the series it touched.  (A removed-and-recreated
        series restarts at small values — :meth:`metric_generation`
        changes on both events, which is what cache validators check
        alongside this.)
        """
        series = self._series(key)
        return 0 if series is None else series.generation

    def series_reshape_generation(self, key: SeriesKey) -> int:
        """Counter of non-append mutations of one series; 0 if unknown.

        While it holds still, the series only grew past its previous
        maximum timestamp — the invariant that makes incremental
        dashboard refresh (splice new buckets onto cached ones) exact.
        """
        series = self._series(key)
        return 0 if series is None else series.reshape_generation

    def series_latest(self, key: SeriesKey) -> tuple[int, float] | None:
        """Latest ``(timestamp, value)`` of one series, or None if unknown."""
        series = self._series(key)
        return None if series is None else series.latest()

    def series_slice(
        self, key: SeriesKey, start: int | None = None, end: int | None = None
    ) -> SeriesSlice:
        """Raw sorted slice of one series; empty for unknown keys."""
        series = self._series(key)
        return _empty_slice() if series is None else series.scan(start, end)

    def last(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> dict[SeriesKey, tuple[int, float]]:
        """Latest point per matching series, in :meth:`_match` order."""
        out: dict[SeriesKey, tuple[int, float]] = {}
        for key in self._match(metric, tags or {}):
            latest = self.series_latest(key)
            if latest is not None:
                out[key] = latest
        return out

    # -- derived writes: everything lands through put_batch --------------
    def put(
        self,
        metric: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> SeriesKey:
        """Write one data point, creating the series on first sight."""
        return self.put_point(
            DataPoint(SeriesKey.make(metric, tags), int(timestamp), float(value))
        )

    def put_point(self, point: DataPoint) -> SeriesKey:
        self.put_batch(PointBatch.from_points([point]))
        return point.key

    def put_series(
        self,
        metric: str,
        timestamps,
        values,
        tags: Mapping[str, str] | None = None,
    ) -> SeriesKey:
        """Bulk-write parallel timestamp/value columns into one series."""
        batch = PointBatch.for_series(metric, timestamps, values, tags)
        self.put_batch(batch)
        return batch.keys[0]

    #: put_many flushes its builder at this size so streaming a huge
    #: iterable stays bounded-memory while keeping batch overhead tiny.
    _PUT_MANY_CHUNK = 65_536

    def put_many(self, points: Iterable[DataPoint]) -> int:
        builder = BatchBuilder()
        n = 0
        for p in points:
            builder.add_point(p)
            if len(builder) >= self._PUT_MANY_CHUNK:
                n += self.put_batch(builder.build())
        return n + self.put_batch(builder.build())

    def run(self, query: Query) -> QueryResult:
        """Execute a query; see :class:`~repro.tsdb.query.Query`.

        A single query is a batch of one (``run_many``), so every entry
        point — one-shot, batched, wire — executes through the same plan
        and returns identical results.
        """
        return self.run_many([query])[0]

    def run_many(
        self, queries: Sequence[Query | QueryBuilder | ExprQuery]
    ) -> list[QueryResult | ExprResult]:
        """Plan and execute a batch of queries together.

        The dashboard entry point: all queries plan as one batch —
        duplicate queries execute once and distinct queries share
        series matching and physical scans, on either store.
        Accepts :class:`Query`, fluent builders, and :func:`expr`
        expression queries; results align with the input order.
        """
        return run_batch(self, queries)

    def _run_unique_batch(
        self, queries: Sequence[Query], parallel: bool | None = None
    ) -> list[QueryResult]:
        """Execution hook behind ``run_many``: the planner's shared
        executor over this store's catalog and series columns."""
        # ``parallel`` is ignored: the frozen benchmarks/e2e ScanProxy passes it.
        return run_unique_batch(queries, self._match, self.series_slice)

    def _run_uncached_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """``_run_unique_batch`` below any result cache.  A store keeps
        none, so here they are one hook; the serving layer's
        ``CachingStore`` answers with what it runs on a miss."""
        return self._run_unique_batch(queries)

    def select(self, metric: str) -> QueryBuilder:
        """Start a fluent query builder bound to this store:
        ``store.select("air.co2.ppm").where(node="*").range(t0, t1).run()``.
        """
        return _select(metric, store=self)

    def iter_series(
        self, start: int | None = None, end: int | None = None
    ) -> Iterator[tuple[SeriesKey, SeriesSlice]]:
        """All series in canonical order (metric, then key string).

        The iteration order is a function of the *data*, not of the
        store layout, so snapshots of a sharded store are byte-identical
        to snapshots of a single store holding the same points.
        """
        for metric in self.metrics():
            for key in self.series_for_metric(metric):
                yield key, self.series_slice(key, start, end)

    def iter_points(self) -> Iterator[DataPoint]:
        """Every stored point, series by series, time-sorted within each."""
        for key, sl in self.iter_series():
            for ts, val in zip(sl.timestamps.tolist(), sl.values.tolist()):
                yield DataPoint(key, int(ts), float(val))


class StoreWrapper(StoreApi):
    """Base of the ``_store`` wrappers (``DurableStore``,
    ``ReplicatedStore``, ``CachingStore``): owns the wrapped store and
    passes through whatever the wrapper does not define.

    A wrapper that intercepts writes overrides the three primitives; the
    derived writes above then reach it through ``self.put_batch``, and
    the derived reads re-derive over the wrapped store's ``catalog`` /
    ``_series`` — a wrapper lists no read.  The pass-through is by name
    only — a wrapper never inspects the type of what it wraps, so any
    stand-in with the same methods may sit between two layers.
    """

    def __init__(self, store: TimeSeriesStore) -> None:
        self._store = store

    @property
    def wrapped(self) -> TimeSeriesStore:
        """The underlying store (escape hatch)."""
        return self._store

    def __getattr__(self, name: str):
        # Only called for attributes not found on the wrapper's class
        # (every derived read and write is, through StoreApi): the
        # primitives it leaves alone and whatever is not in the protocol.
        return getattr(self._store, name)
