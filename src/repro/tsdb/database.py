"""The time-series database engine.

A from-scratch reproduction of the OpenTSDB role in the CTT stack: series
are keyed by metric + tags, an inverted tag index accelerates filtered
lookups, and queries combine scan → (optional) rate → group-by →
cross-series aggregation → (optional) downsample.
"""

from __future__ import annotations

from typing import Callable, Mapping

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
    # Reads: ``catalog`` above and these; StoreApi derives every other
    # ------------------------------------------------------------------
    def _series(self, key: SeriesKey) -> SeriesStore | None:
        """Column store of one live series, or None for unknown keys."""
        return self._stores.get(key)

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
