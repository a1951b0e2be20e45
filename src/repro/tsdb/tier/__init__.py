"""Tiered storage: compaction and the journal.

The two mechanisms that make history *cheap to keep*, layered on the
CRC-framed segment format:

- :mod:`.compact` — rewrite a fragmented WAL as its live data
  (sorted, deduplicated, retention markers resolved), atomically and
  crash-safely, with a trigger policy for background maintenance;
- :mod:`.wal` — the journal: the one write-through wrapper that gives
  a live store a compactable WAL.

Aging data down through resolutions (raw → 5m → 1h → drop) is
:class:`~repro.tsdb.retention.RetentionPolicy`'s: it writes through the
store's own protocol, so under the journal the aged state survives
restart and replicates.
"""

from .compact import CompactionPolicy, CompactionResult, Compactor, compact_log
from .wal import DurableStore

__all__ = [
    "CompactionPolicy",
    "CompactionResult",
    "Compactor",
    "DurableStore",
    "compact_log",
]
