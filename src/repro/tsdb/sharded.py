"""Sharded TSDB engine: N independent stores behind one interface.

Scaling past a single in-process store means partitioning: series keys
hash-route to one of N independent :class:`~repro.tsdb.database.TSDB`
shards, writes land shard-local (the columnar batch regroups per series
via :meth:`~repro.tsdb.batch.PointBatch.by_series`, so each shard sees
one `extend_batch` per touched series), and reads fan out to the owning
shards before merging.

Semantics are pinned to the single store: a series lives entirely in
exactly one shard, every query runs through the shared
:mod:`~repro.tsdb.plan` stages (groups form from the global key set,
slices aggregate in sorted key order, pushdown engages only where the
distributed merge is bit-exact), and the cross-series merge is the same
sorted timestamp union — so query, aggregation, downsample, and
retention results are byte-identical for any shard count, serial or
thread-pooled (``tests/test_tsdb_sharded.py`` and
``tests/test_tsdb_plan.py`` enforce this for n ∈ {1, 2, 4, 7}).

Routing uses CRC-32 of the canonical key string: stable across
processes and Python's per-run hash randomization, which is what lets a
snapshot taken by one process be restored shard-by-shard in another.
"""

from __future__ import annotations

import os
import re
import zlib
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

from . import aggregators, persistence
from . import plan as planner
from .batch import PointBatch
from .catalog import MergedCatalog
from .database import TSDB
from .downsample import apply as apply_downsample
from .interface import StoreApi
from .model import DataPoint, SeriesKey
from .query import Query, QueryResult, ResultSeries, compute_rate
from .series import SeriesSlice


def shard_for_key(key: SeriesKey, num_shards: int) -> int:
    """Owning shard of a series: stable hash of the canonical key string.

    Pure function of ``(key, num_shards)`` — independent of insertion
    order, process, and run — so routing never drifts between a writer,
    a restored snapshot, and a reader.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    return zlib.crc32(str(key).encode("utf-8")) % num_shards


#: Per-shard snapshot files inside a directory: ``shard-<i>-of-<n>.log``
#: (text line protocol) or ``.seg`` (binary columnar segments).
_SHARD_FILE_RE = re.compile(r"^shard-(\d+)-of-(\d+)\.(log|seg)$")

#: Snapshot file extension per format.
_SHARD_EXT = {"text": "log", "binary": "seg"}


def _fanout_workers(num_shards: int) -> int:
    return min(num_shards, os.cpu_count() or 1)


class ShardedTSDB(StoreApi):
    """Hash-partitioned store satisfying the same interface as :class:`TSDB`.

    Drop-in for every consumer of
    :class:`~repro.tsdb.interface.TimeSeriesStore` — the dataport's
    ``BatchingTsdbWriter``, persistence ``snapshot``/``dumps``/``load``,
    ``RetentionPolicy``, dashboards and analytics.  Writes route per
    series; queries fan out and k-way merge per-series slices through
    the shared execution plan.
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
        self._catalog = MergedCatalog(
            [sh.catalog for sh in self._shards], max_tag_values=max_tag_values
        )
        # One fan-out pool per store, created lazily on first pooled
        # operation and reused for every query/snapshot/restore fan-out.
        # A per-call pool costs thread spawn + teardown on every
        # request — ruinous at server request rates.
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Fan-out pool lifecycle
    # ------------------------------------------------------------------
    def fanout_pool(self) -> ThreadPoolExecutor:
        """The store's shared fan-out pool (created on first use).

        Sized to ``min(num_shards, cpu_count)``; all pooled paths
        (batched queries, snapshot, restore) share it.  Safe to call
        after :meth:`close` — a fresh pool is created.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=_fanout_workers(len(self._shards)),
                thread_name_prefix="tsdb-fanout",
            )
        return self._pool

    def close(self) -> None:
        """Shut down the fan-out pool (idempotent).

        The store itself stays usable — serial paths keep working and
        the next pooled operation lazily recreates the pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedTSDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        if self._catalog.max_tag_values is not None and key not in shard._stores:
            self._catalog.check_add(key)

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
        return shard.put_point(DataPoint(key, int(timestamp), float(value)))

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

    def put_series(
        self,
        metric: str,
        timestamps,
        values,
        tags: Mapping[str, str] | None = None,
    ) -> SeriesKey:
        batch = PointBatch.for_series(metric, timestamps, values, tags)
        self.put_batch(batch)
        return batch.keys[0]

    # put_many comes from StoreApi (chunked builder → put_batch).

    # ------------------------------------------------------------------
    # Introspection (union over shards)
    # ------------------------------------------------------------------
    @property
    def series_count(self) -> int:
        return sum(sh.series_count for sh in self._shards)

    @property
    def point_count(self) -> int:
        return sum(sh.point_count for sh in self._shards)

    def exact_point_count(self) -> int:
        return sum(sh.exact_point_count() for sh in self._shards)

    @property
    def write_count(self) -> int:
        return sum(sh.write_count for sh in self._shards)

    @property
    def catalog(self) -> MergedCatalog:
        """Read-only merged catalog over the per-shard inverted indexes."""
        return self._catalog

    def metrics(self) -> list[str]:
        return self._catalog.metrics()

    def series_for_metric(self, metric: str) -> list[SeriesKey]:
        return self._catalog.series(metric)

    def tag_keys(self, metric: str) -> list[str]:
        """Tag keys on any live series of ``metric``, across all shards."""
        return self._catalog.tag_keys(metric)

    def tag_values(self, metric: str, tag_key: str) -> list[str]:
        """Distinct live values of one tag key, across all shards."""
        return self._catalog.tag_values(metric, tag_key)

    def suggest_tag_values(self, metric: str, tag_key: str) -> list[str]:
        return self._catalog.tag_values(metric, tag_key)

    def cardinality(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> int:
        """Matching-series count summed over the (disjoint) shards."""
        return self._catalog.cardinality(metric, tags)

    def last(
        self, metric: str, tags: Mapping[str, str] | None = None
    ) -> dict[SeriesKey, tuple[int, float]]:
        out: dict[SeriesKey, tuple[int, float]] = {}
        for sh in self._shards:
            out.update(sh.last(metric, tags))  # key sets are disjoint
        return out

    # ------------------------------------------------------------------
    # Write-generation tracking (routes like any other series access)
    # ------------------------------------------------------------------
    def series_generation(self, key: SeriesKey) -> int:
        """Mutation counter of one series (owning shard's counter)."""
        return self._shards[self.shard_of(key)].series_generation(key)

    def series_reshape_generation(self, key: SeriesKey) -> int:
        """Non-append mutation counter of one series (owning shard's)."""
        return self._shards[self.shard_of(key)].series_reshape_generation(key)

    def metric_generation(self, metric: str) -> int:
        """Create/remove counter for a metric, summed over shards.

        Each shard's counter is monotonic, so the sum is monotonic and
        changes exactly when any shard's series set for the metric
        does — the same validity signal the single store provides.
        """
        return sum(sh.metric_generation(metric) for sh in self._shards)

    def catalog_generation(self) -> int:
        """Series create/remove counter, summed over shards (monotonic)."""
        return self._catalog.generation

    def series_latest(self, key: SeriesKey) -> tuple[int, float] | None:
        """Latest ``(timestamp, value)`` of one series, or None."""
        return self._shards[self.shard_of(key)].series_latest(key)

    # ------------------------------------------------------------------
    # Queries (fan out, then merge through the shared plan)
    # ------------------------------------------------------------------
    def run(self, query: Query, *, parallel: bool | None = None) -> QueryResult:
        """Execute a query; a planner shim, like ``TSDB.run``.

        A single query is a batch of one: matching, scanning, and the
        pushdown decisions all go through ``_run_unique_batch``, so
        one-shot and batched execution return identical results.
        ``parallel`` picks serial vs thread-pooled fan-out (default:
        pooled when there is more than one shard); both paths are
        byte-identical.
        """
        return self.run_many([query], parallel=parallel)[0]

    def _run_unique_batch(
        self, queries: Sequence[Query], parallel: bool | None = None
    ) -> list[QueryResult]:
        """Batched fan-out with per-shard pushdown behind ``run_many``.

        Planning happens once for the whole batch:

        1. *Match* (coordinator): each distinct (metric, tags) filter
           matches once across all shards, recording the owning shard
           per key.  Groups form from the global key set — identical to
           the single store's grouping.
        2. *Shard phase* (thread pool, one task per shard): each shard
           scans every touched local series once over the covering
           range of all queries needing it, applies per-series rate,
           and then pushes work down as far as exactness allows: a
           group whose series all live on this shard is finished here
           (aggregate + downsample, same helpers as the central plan);
           a group that spans shards with a
           :func:`~repro.tsdb.aggregators.mergeable` aggregator
           (min/max/count) reduces to a partial column; everything else
           returns its post-rate slices for central aggregation.
        3. *Merge phase* (coordinator, pooled when parallel): merge
           partial columns, run the central plan over gathered slices
           for the float-fold aggregators, and assemble each query's
           series in sorted group order with exact scanned-point
           accounting.

        Every stage runs the same :mod:`~repro.tsdb.plan` helpers over
        the same slices in the same sorted-key order as the single
        store, so results are byte-identical for any shard count, with
        ``parallel`` on or off.
        """
        n = len(self._shards)
        if parallel is None:
            # Pooling one worker only adds overhead: auto mode requires
            # both multiple shards and multiple cores.
            use_pool = n > 1 and _fanout_workers(n) > 1
        else:
            use_pool = bool(parallel)

        # --- 1. match: distinct filters once, owner shard per key -----
        match_cache: dict[tuple, list[tuple[SeriesKey, int]]] = {}
        matched: list[list[tuple[SeriesKey, int]]] = []
        for q in queries:
            mk = (q.metric, tuple(sorted(q.tags.items())))
            pairs = match_cache.get(mk)
            if pairs is None:
                pairs = [
                    (key, si)
                    for si, sh in enumerate(self._shards)
                    for key in sh._match(q.metric, q.tags)
                ]
                match_cache[mk] = pairs
            matched.append(pairs)

        plans = [
            (
                q.parsed_downsample(),
                aggregators.get_columnar(q.aggregator),
                aggregators.mergeable(q.aggregator),
            )
            for q in queries
        ]

        # --- plan the shard tasks --------------------------------------
        scan_plans = [planner.ScanPlan() for _ in range(n)]
        prep: list[list[tuple[int, SeriesKey]]] = [[] for _ in range(n)]
        local_jobs: list[list[tuple[int, tuple, list[SeriesKey]]]] = [
            [] for _ in range(n)
        ]
        partial_jobs: list[list[tuple[int, tuple, list[SeriesKey]]]] = [
            [] for _ in range(n)
        ]
        #: (qi, label) -> ("local", shard) | ("merge", shards) | ("gather",)
        kinds: dict[tuple[int, tuple], tuple] = {}
        groups_per_query: list[list[tuple[tuple, list[SeriesKey]]]] = []
        for qi, (q, pairs) in enumerate(zip(queries, matched)):
            shard_of = dict(pairs)
            for key, si in pairs:
                scan_plans[si].need(key, q.start, q.end)
                prep[si].append((qi, key))
            groups = sorted(planner.group_keys(q, [k for k, _ in pairs]).items())
            groups_per_query.append(groups)
            for label, keys in groups:
                shards_here = sorted({shard_of[k] for k in keys})
                if len(shards_here) == 1:
                    kinds[(qi, label)] = ("local", shards_here[0])
                    local_jobs[shards_here[0]].append((qi, label, keys))
                elif plans[qi][2] is not None:
                    kinds[(qi, label)] = ("merge", shards_here)
                    for si in shards_here:
                        partial_jobs[si].append(
                            (qi, label, [k for k in keys if shard_of[k] == si])
                        )
                else:
                    kinds[(qi, label)] = ("gather",)

        # --- 2. shard phase --------------------------------------------
        def shard_task(si: int):
            shard = self._shards[si]
            scans = scan_plans[si]
            scans.resolve(lambda key, lo, hi: shard._stores[key].scan(lo, hi))
            prepared: dict[tuple[int, SeriesKey], SeriesSlice] = {}
            scanned: dict[int, int] = defaultdict(int)
            for qi, key in prep[si]:
                q = queries[qi]
                sl = scans.slice_for(key, q.start, q.end)
                scanned[qi] += len(sl)
                if q.rate:
                    sl = compute_rate(sl)
                prepared[(qi, key)] = sl
            align_cache: dict = {}  # shared across this shard's jobs
            finished: dict[tuple[int, tuple], SeriesSlice] = {}
            for qi, jobs in groupby(local_jobs[si], key=itemgetter(0)):
                jobs = list(jobs)
                ds, agg, _ = plans[qi]
                reduced = planner.reduce_groups(
                    queries[qi],
                    [[prepared[(qi, k)] for k in keys] for _, _, keys in jobs],
                    ds=ds,
                    agg=agg,
                    align_cache=align_cache,
                )
                for (_, label, _), combined in zip(jobs, reduced):
                    finished[(qi, label)] = combined
            partials: dict[tuple[int, tuple], SeriesSlice] = {}
            for qi, label, keys in partial_jobs[si]:
                partials[(qi, label)] = planner.partial_aggregate(
                    [prepared[(qi, k)] for k in keys],
                    plans[qi][2][0],
                    align_cache=align_cache,
                )
            return scanned, finished, partials, prepared

        if use_pool and n > 1:
            pool = self.fanout_pool()
            shard_out = list(pool.map(shard_task, range(n)))
            results = self._merge_phase(
                queries, plans, groups_per_query, kinds, shard_out, pool
            )
        else:
            shard_out = [shard_task(si) for si in range(n)]
            results = self._merge_phase(
                queries, plans, groups_per_query, kinds, shard_out, None
            )
        return results

    def _merge_phase(
        self, queries, plans, groups_per_query, kinds, shard_out, pool
    ) -> list[QueryResult]:
        """Coordinator half of the batched fan-out: merge and assemble."""
        by_key: dict[tuple[int, SeriesKey], SeriesSlice] = {}
        for _, _, _, prepared in shard_out:
            by_key.update(prepared)
        # Shared across the central jobs: two panels aggregating the same
        # prepared slices (avg + dev over one metric) align once.  Dict
        # get/set are atomic under the GIL; a rare concurrent double
        # compute of one key is wasted work, never wrong results.
        align_cache: dict = {}

        def central(qi: int, label: tuple, keys: list[SeriesKey]) -> SeriesSlice:
            q = queries[qi]
            ds, agg, merge_pair = plans[qi]
            kind = kinds[(qi, label)]
            if kind[0] == "merge":
                combined = planner.aggregate_across(
                    [shard_out[si][2][(qi, label)] for si in kind[1]],
                    merge_pair[1],
                )
            else:  # gather: central aggregation in global sorted-key order
                combined = planner.aggregate_across(
                    [by_key[(qi, k)] for k in keys], agg,
                    align_cache=align_cache,
                )
            if ds is not None:
                combined = apply_downsample(combined, ds, q.start, q.end)
            return combined

        # Central reductions are independent; fan them out on the same
        # pool (numpy's sort/reduce kernels release the GIL).
        todo = [
            (qi, label, keys)
            for qi, groups in enumerate(groups_per_query)
            for label, keys in groups
            if kinds[(qi, label)][0] != "local"
        ]
        if pool is not None and len(todo) > 1:
            combined_slices = list(
                pool.map(lambda job: central(*job), todo)
            )
        else:
            combined_slices = [central(*job) for job in todo]
        central_done = {
            (qi, label): sl for (qi, label, _), sl in zip(todo, combined_slices)
        }

        results: list[QueryResult] = []
        for qi, (q, groups) in enumerate(zip(queries, groups_per_query)):
            series_out: list[ResultSeries] = []
            for label, keys in groups:
                kind = kinds[(qi, label)]
                if kind[0] == "local":
                    combined = shard_out[kind[1]][1][(qi, label)]
                else:
                    combined = central_done[(qi, label)]
                series_out.append(
                    ResultSeries(
                        metric=q.metric,
                        group_tags=dict(label),
                        slice=combined,
                        source_series=tuple(keys),
                    )
                )
            if not series_out:
                series_out.append(
                    ResultSeries(q.metric, {}, planner._empty_slice(), ())
                )
            scanned = sum(out[0].get(qi, 0) for out in shard_out)
            results.append(
                QueryResult(
                    query=q,
                    series=tuple(series_out),
                    scanned_points=scanned,
                )
            )
        return results

    def series_slice(
        self, key: SeriesKey, start: int | None = None, end: int | None = None
    ) -> SeriesSlice:
        return self._shards[self.shard_of(key)].series_slice(key, start, end)

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
    def snapshot_to_dir(self, directory: str | Path, *, format: str = "text") -> int:
        """Snapshot every shard into ``<dir>/shard-<i>-of-<n>.log|seg``.

        Shards snapshot independently (each file is a normal WAL in the
        chosen format), so the fan-out runs on a thread pool: each
        worker owns one shard and one file, results are byte-identical
        to a serial pass, and numpy's column encoding releases the GIL
        for the I/O-heavy part.  Workers write ``.tmp`` files that are
        renamed into place — and any previous snapshot's files (other
        format *or* other shard count) removed — only after *every*
        shard succeeded, so a mid-snapshot failure (disk full) leaves
        the prior snapshot restorable instead of a half-replaced mixed
        directory.  Returns total points written.
        """
        if format not in _SHARD_EXT:
            raise ValueError(f'unknown format {format!r}; pick "text" or "binary"')
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        n = len(self._shards)
        ext = _SHARD_EXT[format]

        def snap_one(i: int) -> int:
            return persistence.snapshot(
                self._shards[i],
                directory / f"shard-{i}-of-{n}.{ext}.tmp",
                format=format,
            )

        try:
            if n == 1:
                total = snap_one(0)
            else:
                total = sum(self.fanout_pool().map(snap_one, range(n)))
        except BaseException:
            for i in range(n):
                (directory / f"shard-{i}-of-{n}.{ext}.tmp").unlink(missing_ok=True)
            raise
        keep = set()
        for i in range(n):
            name = f"shard-{i}-of-{n}.{ext}"
            (directory / f"{name}.tmp").replace(directory / name)
            keep.add(name)
        # Drop every other snapshot file — other formats AND other shard
        # counts — so the directory always holds exactly one restorable
        # snapshot (restore_from_dir rejects mixed counts/duplicates).
        for path in directory.iterdir():
            if _SHARD_FILE_RE.match(path.name) and path.name not in keep:
                path.unlink()
        return total

    @classmethod
    def restore_from_dir(
        cls, directory: str | Path, *, mmap: bool = False
    ) -> "ShardedTSDB":
        """Rebuild a sharded store from :meth:`snapshot_to_dir` output.

        The shard count comes from the file names and each file's format
        is auto-detected, so text and binary snapshots (or a mix, as
        after a partial migration) restore identically.  Every restored
        series is verified to hash-route to the shard it was found in,
        so a renamed or misplaced file fails loudly instead of silently
        corrupting routing.  Shards replay on a thread pool — the files
        are independent, so parallel replay is byte-identical to serial.
        ``mmap=True`` replays binary shard files zero-copy out of the
        page cache (see :func:`~repro.tsdb.persistence.load`).
        """
        n, files = scan_snapshot_dir(directory)
        db = cls(n)

        def restore_one(i: int) -> None:
            persistence.load(files[i], into=db._shards[i], mmap=mmap)
            validate_shard_routing(db._shards[i], i, n)

        if n == 1:
            restore_one(0)
        else:
            for _ in db.fanout_pool().map(restore_one, range(n)):
                pass
        return db

    # ------------------------------------------------------------------
    # Internals shared with the single store's callers
    # ------------------------------------------------------------------
    def _match(self, metric: str, tags: Mapping[str, str]) -> list[SeriesKey]:
        """Matching series in canonical sorted order — the merged
        catalog's per-shard postings matches, so the result list is
        identical to the single store's for any shard count."""
        return self._catalog.match(metric, tags)

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


def scatter_batch(batch: PointBatch, num_shards: int) -> list[PointBatch]:
    """Split one batch into per-shard batches (routing preview/debug aid).

    ``put_batch`` routes columns directly and never materializes these;
    this helper exists for callers that ship batches to remote shards.
    """
    builders: dict[int, list] = {}
    for key, ts, vals in batch.by_series():
        builders.setdefault(shard_for_key(key, num_shards), []).append(
            (key, ts, vals)
        )
    out: list[PointBatch] = []
    for i in range(num_shards):
        parts = builders.get(i)
        if not parts:
            out.append(PointBatch.empty())
            continue
        out.append(
            PointBatch.concat(
                [
                    PointBatch.for_series(key.metric, ts, vals, key.tag_dict())
                    for key, ts, vals in parts
                ]
            )
        )
    return out
