"""The time-series database engine.

A from-scratch reproduction of the OpenTSDB role in the CTT stack: series
are keyed by metric + tags, an inverted tag index accelerates filtered
lookups, and queries combine scan → (optional) rate → group-by →
cross-series aggregation → (optional) downsample.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Mapping, Sequence

import numpy as np

from . import plan as planner
from .batch import PointBatch
from .catalog import SeriesCatalog
from .interface import StoreApi
from .model import DataPoint, SeriesKey
from .query import Query, QueryResult
from .series import SeriesSlice, SeriesStore


class TSDB(StoreApi):
    """In-memory time-series database with tag-indexed queries.

    The public surface is deliberately OpenTSDB-shaped:

    - :meth:`put` writes one point (out-of-order tolerated),
    - :meth:`put_batch` / :meth:`put_series` move whole columnar batches
      (the hot ingest path; :meth:`put` is the degenerate single-point
      case of the same store machinery),
    - :meth:`run` executes a :class:`Query`,
    - :meth:`suggest_metrics` / :meth:`suggest_tag_values` /
      :meth:`tag_keys` / :meth:`tag_values` / :meth:`cardinality` back
      dashboard autocomplete and capacity planning (the
      :class:`~repro.tsdb.catalog.SeriesCatalog` metadata surface),
    - :meth:`last` serves "current value" dashboard panels.

    ``max_tag_values`` arms the catalog's cardinality guard-rail: a
    write that would create more distinct values of one tag key under
    one metric is rejected with
    :class:`~repro.tsdb.catalog.CardinalityLimitError` before any state
    changes (within a batch, rows of series admitted earlier stay
    written — the same at-least-once boundary a WAL replay has).
    """

    def __init__(self, *, max_tag_values: int | None = None) -> None:
        self._stores: dict[SeriesKey, SeriesStore] = {}
        # The inverted tag index: metric -> tag key -> tag value ->
        # series postings, maintained on every index/unindex path, so
        # matching and the metadata API are O(result), not O(series).
        self.catalog = SeriesCatalog(max_tag_values)
        # metric -> count of series created/removed under it; a cached
        # match set for the metric is valid only while this holds still.
        self._metric_gen: dict[str, int] = defaultdict(int)
        self._puts = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _store_for(self, key: SeriesKey) -> SeriesStore:
        """Store for a series, creating it (and indexing it) on first sight."""
        store = self._stores.get(key)
        if store is None:
            # Index first: the catalog's guard may reject the series,
            # and a rejected series must leave no trace anywhere.
            self.catalog.add(key)
            store = SeriesStore()
            self._stores[key] = store
            self._metric_gen[key.metric] += 1
        return store

    def put(
        self,
        metric: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> SeriesKey:
        """Write one data point, creating the series on first sight."""
        key = SeriesKey.make(metric, tags)
        self._store_for(key).append(timestamp, value)
        self._puts += 1
        return key

    def put_point(self, point: DataPoint) -> SeriesKey:
        self._store_for(point.key).append(point.timestamp, point.value)
        self._puts += 1
        return point.key

    def put_batch(self, batch: PointBatch) -> int:
        """Write a columnar batch: group by series key, one sorted merge
        per touched series, index maintenance once per new series.

        Equivalent to ``put`` called per row (same out-of-order tolerance
        and last-write-wins dedup); returns points written.
        """
        for key, ts, vals in batch.by_series():
            self.put_column(key, ts, vals)
        return len(batch)

    def put_column(self, key: SeriesKey, timestamps, values) -> int:
        """Bulk-write one series' parallel columns under a prebuilt key.

        The primitive under :meth:`put_batch`; shard routers call it
        directly so a regrouped batch lands without re-encoding.
        """
        n = self._store_for(key).extend_batch(timestamps, values)
        self._puts += n
        return n

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def series_count(self) -> int:
        return len(self._stores)

    @property
    def point_count(self) -> int:
        return sum(s.approximate_size for s in self._stores.values())

    def exact_point_count(self) -> int:
        """Point count with duplicates resolved (forces compaction)."""
        return sum(len(s) for s in self._stores.values())

    @property
    def write_count(self) -> int:
        """Total puts accepted (includes overwritten duplicates)."""
        return self._puts

    def metrics(self) -> list[str]:
        return self.catalog.metrics()

    def series_for_metric(self, metric: str) -> list[SeriesKey]:
        return self.catalog.series(metric)

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

    def last(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> dict[SeriesKey, tuple[int, float]]:
        """Latest point per matching series (dashboards' live tiles)."""
        out: dict[SeriesKey, tuple[int, float]] = {}
        for key in self._match(metric, tags or {}):
            latest = self._stores[key].latest()
            if latest is not None:
                out[key] = latest
        return out

    # ------------------------------------------------------------------
    # Write-generation tracking (serving-layer cache/refresh validity)
    # ------------------------------------------------------------------
    def series_generation(self, key: SeriesKey) -> int:
        """Mutation counter of one series; 0 for unknown keys.

        Monotonic per live series: any write or retention delete bumps
        it, so a cached query result is exactly as fresh as the
        generations of the series it touched.  (A removed-and-recreated
        series restarts at small values — :meth:`metric_generation`
        changes on both events, which is what cache validators check
        alongside this.)
        """
        store = self._stores.get(key)
        return 0 if store is None else store.generation

    def series_reshape_generation(self, key: SeriesKey) -> int:
        """Counter of non-append mutations of one series; 0 if unknown.

        While it holds still, the series only grew past its previous
        maximum timestamp — the invariant that makes incremental
        dashboard refresh (splice new buckets onto cached ones) exact.
        """
        store = self._stores.get(key)
        return 0 if store is None else store.reshape_generation

    def metric_generation(self, metric: str) -> int:
        """Counter of series created/removed under ``metric``.

        A cached match set (and therefore grouping) for any filter on
        this metric is valid only while this value holds still.
        """
        return self._metric_gen.get(metric, 0)

    def catalog_generation(self) -> int:
        """Counter of series created/removed anywhere in the store.

        Whole-catalog answers (``metrics()``) are valid while it holds
        still; metric-scoped answers use :meth:`metric_generation`.
        """
        return self.catalog.generation

    def series_latest(self, key: SeriesKey) -> tuple[int, float] | None:
        """Latest ``(timestamp, value)`` of one series, or None if unknown."""
        store = self._stores.get(key)
        return None if store is None else store.latest()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _run_unique_batch(
        self, queries: Sequence[Query], parallel: bool | None = None
    ) -> list[QueryResult]:
        """Execution hook behind ``run_many``: the planner's shared
        executor over this store's catalog and series columns."""
        # ``parallel`` is ignored: the frozen benchmarks/e2e ScanProxy passes it.
        return planner.run_unique_batch(queries, self._match, self.series_slice)

    def series_slice(
        self, key: SeriesKey, start: int | None = None, end: int | None = None
    ) -> SeriesSlice:
        """Raw sorted slice of one series; empty for unknown keys."""
        store = self._stores.get(key)
        if store is None:
            return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
        return store.scan(start, end)

    def _match(self, metric: str, tags: Mapping[str, str]) -> list[SeriesKey]:
        """Series matching a filter, in canonical sorted order.

        Resolved entirely in the catalog's postings: exact values
        intersect, ``"a|b"`` alternations union, ``"*"`` uses has-key
        postings, and ``key.matches`` runs only over the narrowed pool
        as a final exactness check — O(result), not O(series-under-
        metric), and deterministic regardless of set iteration order.
        """
        return self.catalog.match(metric, tags)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def delete_before(self, cutoff: int, *, exclude_suffix: str | None = None) -> int:
        """Apply retention: drop all points older than ``cutoff``.

        Series whose metric ends with ``exclude_suffix`` are spared —
        retention rollups live in the same database and must outlive the
        raw data they summarize.
        """
        dropped = 0
        dead: list[SeriesKey] = []
        for key, store in self._stores.items():
            if exclude_suffix is not None and key.metric.endswith(exclude_suffix):
                continue
            dropped += store.delete_before(cutoff)
            if len(store) == 0:
                dead.append(key)
        for key in dead:
            self._unindex(key)
        return dropped

    def delete_series_before(self, key: SeriesKey, cutoff: int) -> int:
        """Retention for one series: drop its points older than ``cutoff``.

        The primitive under tag-scoped retention (the regional hub
        applies per-city horizons to ``city=<name>`` series only).
        Returns points dropped; unknown keys drop nothing.
        """
        store = self._stores.get(key)
        if store is None:
            return 0
        dropped = store.delete_before(cutoff)
        if len(store) == 0:
            self._unindex(key)
        return dropped

    def _unindex(self, key: SeriesKey) -> None:
        """Remove an emptied series and prune its index buckets.

        Under retention churn, dead series would otherwise leave their
        index entries behind forever.
        """
        del self._stores[key]
        self._metric_gen[key.metric] += 1
        self.catalog.discard(key)


def execute_query(
    query: Query,
    matched: list[SeriesKey],
    scan: Callable[[SeriesKey], SeriesSlice],
) -> QueryResult:
    """The group-by → aggregate → downsample plan over scanned slices.

    Kept as the stable name for the store-layout-independent execution
    plan (the equivalence suites use it as their reference); the
    implementation is :func:`~repro.tsdb.plan.execute_plan`, the same
    stages the batched executor runs.
    """
    return planner.execute_plan(query, matched, scan)
