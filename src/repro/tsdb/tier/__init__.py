"""Tiered storage: compaction, cold-shard paging, age-based rollup tiers.

The three mechanisms that make history *cheap to keep* (ROADMAP item 3),
layered on the CRC-framed segment format:

- :mod:`.compact` — rewrite a fragmented WAL as its live data
  (sorted, deduplicated, retention markers resolved), atomically and
  crash-safely, with a trigger policy for background maintenance;
- :mod:`.pager` — replay cold shards from a snapshot directory on
  first touch, instead of eagerly at startup;
- :mod:`.rollup` — cascade aging data down through resolutions
  (raw → 5m → 1h) through the store's own write protocol, so under the
  journal the tiered state survives restart and replicates;
- :mod:`.wal` — the journal: the one write-through wrapper that gives
  a live store a compactable WAL.
"""

from .compact import (
    CompactionPolicy,
    CompactionResult,
    Compactor,
    compact_dir,
    compact_log,
)
from .pager import ColdShardPager
from .rollup import Tier, TierPolicy, TierReport
from .wal import DurableStore

__all__ = [
    "ColdShardPager",
    "CompactionPolicy",
    "CompactionResult",
    "Compactor",
    "DurableStore",
    "Tier",
    "TierPolicy",
    "TierReport",
    "compact_dir",
    "compact_log",
]
