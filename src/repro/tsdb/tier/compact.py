"""Segment compaction: fold a WAL's write history down to its live data.

A WAL's replay cost tracks *write history* — every small append, every
overwritten duplicate, every point a retention marker later deleted is
read, CRC-checked, and decoded again on restart.  Compaction rewrites
the log as what a snapshot of its replayed state would be: few large
sorted batch blocks, duplicates collapsed, markers *resolved* (their
deletions applied and the markers themselves gone), so replay cost
tracks live data instead.

The rewrite generalizes the lenient-read/clean-write pass of
:func:`~repro.tsdb.persistence.convert_log`: replay the log into a
fresh store (leniently by default — a torn tail makes a WAL *more*
worth compacting, not un-compactable), snapshot that store in the same
format, and atomically swap the snapshot in.

Crash safety is the snapshot ``.tmp`` protocol: the replacement is
written to ``<name>.compact.tmp``, flushed and fsynced, then
``os.replace``d over the original — a crash at any point leaves either
the intact original (plus a stale ``.tmp`` the next run removes) or the
intact replacement, never a half-written log.  Equivalence is the
subsystem's contract, pinned by hypothesis in
``tests/test_tsdb_tier.py``: restoring the compacted file is
byte-identical to replaying the original.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from ..database import TSDB
from ..persistence import detect_format, load, snapshot
from ..segments import SegmentStats, segment_stats

__all__ = [
    "CompactionPolicy",
    "CompactionResult",
    "Compactor",
    "compact_log",
    "compact_dir",
]

#: Suffix of the crash-safe staging file next to the log being compacted.
COMPACT_TMP_SUFFIX = ".compact.tmp"


@dataclass(frozen=True)
class CompactionPolicy:
    """When is a WAL fragmented enough to be worth rewriting?

    A log triggers when it carries more than ``max_blocks`` blocks or
    more than ``max_marker_blocks`` unresolved retention markers —
    block count measures append fragmentation (replay overhead per
    point), markers measure dead data a rewrite would drop.  Logs
    smaller than ``min_bytes`` never trigger: rewriting a tiny file
    buys nothing.
    """

    max_blocks: int = 256
    max_marker_blocks: int = 16
    min_bytes: int = 0

    def __post_init__(self) -> None:
        if self.max_blocks < 1:
            raise ValueError("max_blocks must be positive")
        if self.max_marker_blocks < 1:
            raise ValueError("max_marker_blocks must be positive")
        if self.min_bytes < 0:
            raise ValueError("min_bytes must be non-negative")

    def should_compact(self, stats: SegmentStats) -> bool:
        if stats.size_bytes < self.min_bytes:
            return False
        return (
            stats.blocks > self.max_blocks
            or stats.marker_blocks > self.max_marker_blocks
        )


@dataclass(frozen=True)
class CompactionResult:
    """Before/after accounting of one compaction pass."""

    path: Path
    bytes_before: int
    bytes_after: int
    blocks_before: int
    blocks_after: int
    markers_resolved: int
    points: int

    @property
    def bytes_ratio(self) -> float:
        """Size reduction factor (>1 = the rewrite shrank the log)."""
        if self.bytes_after == 0:
            return float("inf") if self.bytes_before else 1.0
        return self.bytes_before / self.bytes_after


def _stage_path(path: Path) -> Path:
    return path.with_name(path.name + COMPACT_TMP_SUFFIX)


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    # The rename itself must survive a crash, not just the file bytes.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - directories not fsyncable here
        pass
    finally:
        os.close(fd)


def compact_log(
    path: str | os.PathLike[str],
    *,
    strict: bool = False,
) -> CompactionResult:
    """Rewrite one WAL/snapshot file in place as its compacted form.

    The output is exactly what :func:`~repro.tsdb.persistence.snapshot`
    of the replayed store produces — sorted canonical series order,
    deduplicated, retention markers applied and dropped — in the same
    format as the source (upgrading a text log is
    :func:`~repro.tsdb.persistence.convert_log`'s job).
    Lenient by default: a damaged block or torn tail compacts to the
    recoverable prefix, same as restart recovery would read.

    Crash-safe: stages into ``<name>.compact.tmp`` (fsynced), then
    atomically ``os.replace``s it over the source; stale staging files
    from an earlier crash are removed first, never trusted.
    """
    path = Path(path)
    fmt = detect_format(path)
    before = segment_stats(path, strict=False) if fmt == "binary" else None
    size_before = path.stat().st_size
    db = TSDB()
    load(path, strict=strict, into=db)

    stage = _stage_path(path)
    stage.unlink(missing_ok=True)  # a crashed predecessor's leftovers
    try:
        points = snapshot(db, stage, format=fmt)
        _fsync_path(stage)
        os.replace(stage, path)
    except BaseException:
        stage.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)

    after = segment_stats(path, strict=True) if fmt == "binary" else None
    return CompactionResult(
        path=path,
        bytes_before=size_before,
        bytes_after=path.stat().st_size,
        blocks_before=before.blocks if before is not None else 0,
        blocks_after=after.blocks if after is not None else 0,
        markers_resolved=before.marker_blocks if before is not None else 0,
        points=points,
    )


@dataclass
class Compactor:
    """Trigger-policy wrapper around :func:`compact_log` for one WAL.

    The background-maintenance unit: poll :meth:`maybe_compact` (cheap —
    a framing walk, no column decodes) from a timer loop and the WAL
    gets rewritten only when the policy says it is worth it.  Only
    meaningful for binary logs; text logs report no stats and never
    trigger (compact them explicitly via :func:`compact_log`).
    """

    path: Path
    policy: CompactionPolicy = field(default_factory=CompactionPolicy)
    strict: bool = False
    runs: int = field(default=0, init=False)
    last_result: CompactionResult | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.path = Path(self.path)

    def stats(self) -> SegmentStats | None:
        """Current fragmentation stats; ``None`` when the file is
        missing or not a binary segment (nothing to walk)."""
        if not self.path.exists() or detect_format(self.path) != "binary":
            return None
        return segment_stats(self.path, strict=False)

    def should_compact(self) -> bool:
        stats = self.stats()
        return stats is not None and self.policy.should_compact(stats)

    def compact(self) -> CompactionResult:
        """Compact unconditionally (same-format rewrite)."""
        result = compact_log(self.path, strict=self.strict)
        self.runs += 1
        self.last_result = result
        return result

    def maybe_compact(self) -> CompactionResult | None:
        """Compact only if the trigger policy fires; ``None`` otherwise."""
        if not self.should_compact():
            return None
        return self.compact()


def compact_dir(
    directory: str | os.PathLike[str],
    *,
    policy: CompactionPolicy | None = None,
    strict: bool = False,
) -> dict[int, CompactionResult]:
    """Compact every shard file of a ``snapshot_to_dir`` layout.

    With a ``policy``, each shard is checked independently and only
    fragmented ones rewrite (the background-maintenance mode); without
    one, every shard compacts.  Returns per-shard results keyed by
    shard index (policy-skipped shards absent).
    """
    from ..sharded import scan_snapshot_dir

    _, files = scan_snapshot_dir(directory)
    out: dict[int, CompactionResult] = {}
    for index, path in sorted(files.items()):
        if policy is not None:
            if detect_format(path) != "binary":
                continue
            if not policy.should_compact(segment_stats(path, strict=False)):
                continue
        out[index] = compact_log(path, strict=strict)
    return out
