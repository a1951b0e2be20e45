"""Sharded TSDB engine: N independent stores behind one interface.

Scaling past a single in-process store means partitioning: series keys
hash-route to one of N independent :class:`~repro.tsdb.database.TSDB`
shards, writes land shard-local (the columnar batch regroups per series
via :meth:`~repro.tsdb.batch.PointBatch.by_series`, so each shard sees
one `extend_batch` per touched series), and retention, snapshots, paging
and replication work shard by shard.

This is a partitioning layer, not a second query engine: a series lives
entirely in exactly one shard, filters match in the merged catalog, and
queries run through the single store's own executor
(:func:`~repro.tsdb.plan.run_unique_batch`) with each series' scan
routed to its owning shard — so query, aggregation, downsample, and
retention results are byte-identical for any shard count
(``tests/test_tsdb_sharded.py`` and ``tests/test_tsdb_plan.py`` enforce
this for n ∈ {1, 2, 4, 7}).

Routing uses CRC-32 of the canonical key string: stable across
processes and Python's per-run hash randomization, which is what lets a
snapshot taken by one process be restored shard-by-shard in another.
"""

from __future__ import annotations

import re
import zlib
from pathlib import Path
from typing import Mapping

from . import persistence
from .batch import PointBatch
from .catalog import MergedCatalog
from .database import TSDB
from .interface import StoreApi
from .model import DataPoint, SeriesKey
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


#: Per-shard snapshot files inside a directory: ``shard-<i>-of-<n>.seg``
#: (what :meth:`ShardedTSDB.snapshot_to_dir` writes) or a legacy
#: ``.log`` (text line protocol; restore still reads it).
_SHARD_FILE_RE = re.compile(r"^shard-(\d+)-of-(\d+)\.(log|seg)$")


class ShardedTSDB(StoreApi):
    """Hash-partitioned store satisfying the same interface as :class:`TSDB`.

    Drop-in for every consumer of
    :class:`~repro.tsdb.interface.TimeSeriesStore` — the dataport's
    ``BatchingTsdbWriter``, persistence ``snapshot``/``dumps``/``load``,
    ``RetentionPolicy``, dashboards and analytics.  Writes route per
    series; queries run the shared execution plan over routed scans.
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

    def shard_for(self, metric: str, tags: Mapping[str, str] | None = None) -> int:
        """Owning shard for a (metric, tags) combination."""
        return self.shard_of(SeriesKey.make(metric, tags))

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

    def put_point(self, point: DataPoint) -> SeriesKey:
        shard = self._shards[self.shard_of(point.key)]
        self._admit(point.key, shard)
        return shard.put_point(point)

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

    # put comes from StoreApi (→ put_point); put_series / put_many too
    # (→ put_batch).

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

    # ------------------------------------------------------------------
    # Persistence (one snapshot file per shard)
    # ------------------------------------------------------------------
    def snapshot_to_dir(self, directory: str | Path) -> int:
        """Snapshot every shard into ``<dir>/shard-<i>-of-<n>.seg``.

        Each file is a normal binary WAL of one shard.  Shards are
        written as ``.tmp`` files that are renamed into place — and any
        previous snapshot's files (a legacy ``.log`` *or* another shard
        count) removed — only after *every* shard succeeded, so a
        mid-snapshot failure (disk full) leaves the prior snapshot
        restorable instead of a half-replaced mixed directory.  Returns
        total points written.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        n = len(self._shards)

        try:
            total = sum(
                persistence.snapshot(shard, directory / f"shard-{i}-of-{n}.seg.tmp")
                for i, shard in enumerate(self._shards)
            )
        except BaseException:
            for i in range(n):
                (directory / f"shard-{i}-of-{n}.seg.tmp").unlink(missing_ok=True)
            raise
        keep = set()
        for i in range(n):
            name = f"shard-{i}-of-{n}.seg"
            (directory / f"{name}.tmp").replace(directory / name)
            keep.add(name)
        # Drop every other snapshot file — legacy text AND other shard
        # counts — so the directory always holds exactly one restorable
        # snapshot (restore_from_dir rejects mixed counts/duplicates).
        for path in directory.iterdir():
            if _SHARD_FILE_RE.match(path.name) and path.name not in keep:
                path.unlink()
        return total

    @classmethod
    def restore_from_dir(cls, directory: str | Path) -> "ShardedTSDB":
        """Rebuild a sharded store from :meth:`snapshot_to_dir` output.

        The shard count comes from the file names and each file's format
        is auto-detected, so text and binary snapshots (or a mix, as
        after a partial migration) restore identically.  Every restored
        series is verified to hash-route to the shard it was found in,
        so a renamed or misplaced file fails loudly instead of silently
        corrupting routing.
        """
        n, files = scan_snapshot_dir(directory)
        db = cls(n)
        for i, shard in enumerate(db._shards):
            persistence.load(files[i], into=shard)
            validate_shard_routing(shard, i, n)
        return db

    def __repr__(self) -> str:
        per_shard = ",".join(str(sh.series_count) for sh in self._shards)
        return f"ShardedTSDB(num_shards={len(self._shards)}, series=[{per_shard}])"


def scan_snapshot_dir(directory: str | Path) -> tuple[int, dict[int, Path]]:
    """Discover and validate a :meth:`ShardedTSDB.snapshot_to_dir` layout.

    Returns ``(shard_count, {shard_index: file})`` after the same checks
    ``restore_from_dir`` applies: no duplicates, one consistent count,
    no missing shards.  Shared with the cold-shard pager and directory
    compaction, which need the layout without replaying anything.
    """
    directory = Path(directory)
    files: dict[int, Path] = {}
    counts: set[int] = set()
    for path in directory.iterdir():
        m = _SHARD_FILE_RE.match(path.name)
        if m is None:
            continue
        if int(m.group(1)) in files:
            raise ValueError(
                f"duplicate snapshot files for shard {m.group(1)} in {directory}"
            )
        files[int(m.group(1))] = path
        counts.add(int(m.group(2)))
    if not files:
        raise FileNotFoundError(f"no shard-*.log|seg snapshot files in {directory}")
    if len(counts) != 1:
        raise ValueError(f"inconsistent shard counts in {directory}: {counts}")
    (n,) = counts
    if sorted(files) != list(range(n)):
        missing = sorted(set(range(n)) - set(files))
        raise ValueError(f"snapshot in {directory} is missing shards {missing}")
    return n, files


def validate_shard_routing(shard: TSDB, index: int, num_shards: int) -> None:
    """Fail loudly if any series in ``shard`` hash-routes elsewhere —
    the renamed/misplaced-snapshot-file guard every restore path runs."""
    for key in shard._stores:
        if shard_for_key(key, num_shards) != index:
            raise ValueError(
                f"series {key} found in shard {index} but routes to "
                f"shard {shard_for_key(key, num_shards)}; snapshot files moved?"
            )
