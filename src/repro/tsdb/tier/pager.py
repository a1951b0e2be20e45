"""Cold-shard paging: restore shards on first touch, not at startup.

``ShardedTSDB.restore_from_dir`` replays every shard file before the
process can answer anything — cold-start latency and RAM both track the
*whole* archive.  :class:`ColdShardPager` wraps the same snapshot
directory but replays a shard only the first time an operation actually
touches it:

- **keyed operations** (``_series`` — and through it every keyed read:
  ``series_slice``, ``series_latest``, both series generations —
  ``put_batch`` — and through it every derived write: ``put``,
  ``put_point``, ``put_series``, ``put_many`` — ``delete_series_before``)
  hash-route exactly like the store does, so they page in only the
  owning shards — an exact read of one series costs one shard's replay,
  not N;
- **global operations** (``catalog`` — and through it queries,
  ``metrics``, wildcard matching — the counts, snapshots) page in
  everything on first use — tag filters are subset matches, so no shard
  can be ruled out without its key set.

Once a shard is resident it is exactly the shard ``restore_from_dir``
would have built (including the routing validation), so a fully paged
pager is byte-identical to an eager restore — pinned in
``tests/test_tsdb_tier.py``.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from ..batch import PointBatch
from ..interface import StoreApi
from ..model import SeriesKey
from ..persistence import load
from ..series import SeriesStore
from ..sharded import (
    ShardedTSDB,
    scan_snapshot_dir,
    shard_for_key,
    validate_shard_routing,
)

__all__ = ["ColdShardPager"]


class ColdShardPager(StoreApi):
    """A :class:`ShardedTSDB` whose shards replay lazily from disk.

    Satisfies the ``TimeSeriesStore`` protocol by delegation: the keyed
    operations below page the owning shard, the derived reads and writes
    reach them through :class:`~repro.tsdb.interface.StoreApi`, and
    anything else (``catalog`` first of all) pages in *all* remaining
    shards and then passes through, so semantics never diverge from the
    eager store — laziness only ever changes *when* a shard's file is read.
    """

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self._directory = Path(directory)
        num_shards, files = scan_snapshot_dir(self._directory)
        self._files = files
        self._db = ShardedTSDB(num_shards)
        self._resident = [False] * num_shards
        self._lock = threading.Lock()

    # -- paging ----------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._db.num_shards

    @property
    def resident_shards(self) -> tuple[int, ...]:
        """Indices of shards already paged in (stable snapshot)."""
        return tuple(i for i, r in enumerate(self._resident) if r)

    @property
    def resident_points(self) -> int:
        """Points held in RAM right now — the pager's footprint metric
        (deterministic, unlike RSS: unloaded shards contribute zero)."""
        with self._lock:
            return sum(
                self._db.shards[i].exact_point_count() for i in self.resident_shards
            )

    def _page_in(self, index: int) -> None:
        with self._lock:
            if self._resident[index]:
                return
            shard = self._db.shards[index]
            load(self._files[index], into=shard)
            validate_shard_routing(shard, index, self._db.num_shards)
            self._resident[index] = True

    def shard_of(self, key: SeriesKey) -> int:
        return shard_for_key(key, self._db.num_shards)

    # -- keyed fast paths: page exactly the owning shard -----------------
    # The one keyed read: every other is StoreApi's, in terms of it.
    def _series(self, key: SeriesKey) -> SeriesStore | None:
        self._page_in(self.shard_of(key))
        return self._db._series(key)

    # put / put_point / put_series / put_many are StoreApi's, so they
    # land here and page only the shards their batch touches.
    def put_batch(self, batch: PointBatch) -> int:
        # Page the owning shards *before* writing: replaying the snapshot
        # after a live write would resurrect snapshotted values over it
        # (replay is last-write-wins at equal timestamps).
        for key in batch.keys:
            self._page_in(self.shard_of(key))
        return self._db.put_batch(batch)

    def delete_series_before(self, key: SeriesKey, cutoff: int) -> int:
        self._page_in(self.shard_of(key))
        return self._db.delete_series_before(key, cutoff)

    # -- everything else: correctness needs the full key set -------------
    def __getattr__(self, name: str):
        # Only reached for attributes not defined above or derived in
        # StoreApi: ``catalog`` (matching needs the full key set), the
        # counts, snapshots.  Private/dunder lookups never page
        # (pickling, repr machinery, hasattr probes).
        if name.startswith("_"):
            raise AttributeError(name)
        for index in range(self._db.num_shards):
            self._page_in(index)
        return getattr(self._db, name)

    def __repr__(self) -> str:
        return (
            f"ColdShardPager({str(self._directory)!r}, "
            f"resident={len(self.resident_shards)}/{self._db.num_shards})"
        )
