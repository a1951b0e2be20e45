"""Sharded TSDB engine: N independent stores behind one interface.

Scaling past a single in-process store means partitioning: series keys
hash-route to one of N independent :class:`~repro.tsdb.database.TSDB`
shards, writes land shard-local (the columnar batch regroups per series
via :meth:`~repro.tsdb.batch.PointBatch.by_series`, so each shard sees
one `extend_batch` per touched series), and retention works shard by
shard.  A snapshot is one file whatever the shard count:
:func:`~repro.tsdb.persistence.snapshot` writes the same bytes a single
store with the same contents would, and ``load(path, into=ShardedTSDB(m))``
restores it into any shard count.

This is a partitioning layer, not a second query engine: a series lives
entirely in exactly one shard, filters match in the merged catalog, and
queries run through the single store's own executor
(:func:`~repro.tsdb.plan.run_unique_batch`) with each series' scan
routed to its owning shard — so query, aggregation, downsample, and
retention results are byte-identical for any shard count
(``tests/test_tsdb_sharded.py`` and ``tests/test_tsdb_plan.py`` enforce
this for n ∈ {1, 2, 4, 7}).

Routing uses CRC-32 of the canonical key string: stable across
processes and Python's per-run hash randomization, so a writer and a
reader in different processes agree on every series' owner.
"""

from __future__ import annotations

import zlib
from typing import Mapping

from .batch import PointBatch
from .catalog import MergedCatalog
from .database import TSDB
from .interface import StoreApi
from .model import SeriesKey
from .series import SeriesStore


def shard_for_key(key: SeriesKey, num_shards: int) -> int:
    """Owning shard of a series: stable hash of the canonical key string.

    Pure function of ``(key, num_shards)`` — independent of insertion
    order, process, and run — so routing never drifts between a writer,
    a restored snapshot, and a reader.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    return zlib.crc32(str(key).encode("utf-8")) % num_shards


class ShardedTSDB(StoreApi):
    """Hash-partitioned store satisfying the same interface as :class:`TSDB`.

    Drop-in for every consumer of
    :class:`~repro.tsdb.interface.TimeSeriesStore` — the dataport's
    ``BatchingTsdbWriter``, persistence ``snapshot``/``dumps``/``load``,
    ``RetentionPolicy`` (per-series rollups and drops, each routed to
    the shard its key hashes to), dashboards and analytics.  Writes
    route per series; queries run the shared execution plan over routed
    scans.
    """

    def __init__(
        self, num_shards: int = 4, *, max_tag_values: int | None = None
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self._shards: tuple[TSDB, ...] = tuple(TSDB() for _ in range(num_shards))
        # Merged read-only view over the per-shard catalogs; also holds
        # the store-wide cardinality guard.  Shards run unlimited — a
        # per-shard limit would admit up to N distinct values *per
        # shard*, diverging from the single store's semantics — so the
        # guard check happens at routing time (:meth:`_admit`).
        self.catalog = MergedCatalog(
            [sh.catalog for sh in self._shards], max_tag_values=max_tag_values
        )

    # No-ops, kept only because the frozen benchmarks/e2e calls them.
    def close(self) -> None:
        pass

    def __enter__(self) -> "ShardedTSDB":
        return self

    def __exit__(self, *exc) -> None:
        pass

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[TSDB, ...]:
        """The underlying per-shard stores (read-mostly; owned by us)."""
        return self._shards

    def shard_of(self, key: SeriesKey) -> int:
        """Index of the shard owning ``key``."""
        return shard_for_key(key, len(self._shards))

    # ------------------------------------------------------------------
    # Writes (route per series)
    # ------------------------------------------------------------------
    def _admit(self, key: SeriesKey, shard: TSDB) -> None:
        """Store-wide cardinality guard for a series about to land.

        Only series new to their owning shard can create tag values, so
        the check — a union over shard catalogs — runs once per new
        series, not per point.
        """
        if self.catalog.max_tag_values is not None and key not in shard._stores:
            self.catalog.check_add(key)

    def put(
        self,
        metric: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> SeriesKey:
        key = SeriesKey.make(metric, tags)
        shard = self._shards[self.shard_of(key)]
        self._admit(key, shard)
        return shard.put(metric, int(timestamp), float(value), tags)

    def put_batch(self, batch: PointBatch) -> int:
        """Route a columnar batch: one shard-local column write per series.

        ``by_series`` preserves row order inside each series, so the
        single-store last-write-wins semantics survive the fan-out.
        """
        for key, ts, vals in batch.by_series():
            shard = self._shards[self.shard_of(key)]
            self._admit(key, shard)
            shard.put_column(key, ts, vals)
        return len(batch)

    # put_series comes from StoreApi (→ put_batch).

    # ------------------------------------------------------------------
    # Reads: ``catalog`` above and these; StoreApi derives every other
    # ------------------------------------------------------------------
    def _series(self, key: SeriesKey) -> SeriesStore | None:
        """Column store of one live series, from its owning shard."""
        return self._shards[self.shard_of(key)]._series(key)

    @property
    def point_count(self) -> int:
        return sum(sh.point_count for sh in self._shards)

    def exact_point_count(self) -> int:
        return sum(sh.exact_point_count() for sh in self._shards)

    @property
    def write_count(self) -> int:
        return sum(sh.write_count for sh in self._shards)

    # ------------------------------------------------------------------
    # Maintenance (fan out)
    # ------------------------------------------------------------------
    def delete_before(
        self, cutoff: int, *, exclude_suffix: str | None = None
    ) -> int:
        return sum(
            sh.delete_before(cutoff, exclude_suffix=exclude_suffix)
            for sh in self._shards
        )

    def delete_series_before(self, key: SeriesKey, cutoff: int) -> int:
        """Single-series retention, routed to the owning shard."""
        return self._shards[self.shard_of(key)].delete_series_before(key, cutoff)

    def __repr__(self) -> str:
        per_shard = ",".join(str(sh.series_count) for sh in self._shards)
        return f"ShardedTSDB(num_shards={len(self._shards)}, series=[{per_shard}])"

