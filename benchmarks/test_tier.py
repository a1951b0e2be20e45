"""Tiered-storage benchmarks: compaction payoff, cold-start paging.

Records the ``tier`` section of ``BENCH_ingest.json``:

- **compaction** — a marker-heavy aged WAL (small per-cadence blocks,
  periodic retention markers as rollup tiers age data out) is compacted
  and the *replay cost* measured before and after; the acceptance gate
  is a ≥5x replay-time reduction — the whole point of the subsystem is
  that restart cost tracks live data, not write history;
- **cold_query** — time-to-first-answer for one keyed series read from
  a cold 4-shard snapshot: eager ``restore_from_dir`` (replays all
  shards) vs :class:`ColdShardPager` (replays exactly the owning
  shard), plus the pager's paged-RAM footprint (``resident_points``)
  against the full archive.
"""

from __future__ import annotations

import time

import pytest

from bench_io import update_section
from repro.tsdb import (
    ColdShardPager,
    DataPoint,
    PointBatch,
    SeriesKey,
    ShardedTSDB,
    compact_log,
    load,
    segment_stats,
)
from repro.tsdb.segments import SegmentWriter

N_SERIES = 40
POINTS_PER_SERIES = 1500
CADENCE_S = 60
#: Retention horizon driving the aged workload's markers: everything
#: older than this is dead weight a rollup pass already aged out.
KEEP_LAST_S = 150 * CADENCE_S
GATE_REPLAY_SPEEDUP = 5.0


def _series_key(s: int) -> SeriesKey:
    return SeriesKey.make(
        f"air.co2.node{s % 8}", {"node": f"n{s:03d}", "city": "trondheim"}
    )


def _best_of(fn, repeats: int = 3) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture(scope="module")
def aged_wal(tmp_path_factory):
    """A WAL shaped like months of ingest + periodic retention: one
    small batch block per cadence tick, a ``!delete_before`` marker
    every 50 ticks (the tier cascade ageing rolled-up raw data out)."""
    path = tmp_path_factory.mktemp("tier-bench") / "aged.seg"
    keys = [_series_key(s) for s in range(N_SERIES)]
    with SegmentWriter(path) as w:
        for tick in range(POINTS_PER_SERIES):
            ts = tick * CADENCE_S
            # one block per cadence tick: append fragmentation
            w.write_batch(
                PointBatch.from_points(
                    DataPoint(key, ts, float(tick % 17)) for key in keys
                )
            )
            if tick and tick % 50 == 0:
                w.delete_before(ts - KEEP_LAST_S)
    return path


def test_compaction_replay_cost(aged_wal):
    """The tentpole gate: compacted replay is >=5x cheaper."""
    before = segment_stats(aged_wal, strict=True)
    replay_before_s, db_before = _best_of(lambda: load(aged_wal))
    reference = db_before.point_count

    result = compact_log(aged_wal)
    after = segment_stats(aged_wal, strict=True)
    replay_after_s, db_after = _best_of(lambda: load(aged_wal))
    assert db_after.point_count == reference  # equivalence, cheaply
    assert after.marker_blocks == 0

    replay_speedup = replay_before_s / replay_after_s
    section = {
        "workload": {
            "series": N_SERIES,
            "points_written": N_SERIES * POINTS_PER_SERIES,
            "points_live": reference,
            "blocks_before": before.blocks,
            "markers_before": before.marker_blocks,
        },
        "compaction": {
            "bytes_before": result.bytes_before,
            "bytes_after": result.bytes_after,
            "bytes_ratio": round(result.bytes_ratio, 1),
            "blocks_after": after.blocks,
            "replay_before_ms": round(replay_before_s * 1e3, 1),
            "replay_after_ms": round(replay_after_s * 1e3, 1),
            "replay_speedup": round(replay_speedup, 1),
        },
    }
    update_section("tier", section, merge=True)
    print(f"\nBENCH_tier: {before.blocks} -> {after.blocks} blocks, "
          f"{result.bytes_ratio:.1f}x smaller, replay "
          f"{replay_before_s * 1e3:.0f} -> {replay_after_s * 1e3:.0f} ms "
          f"({replay_speedup:.1f}x)")
    assert replay_speedup >= GATE_REPLAY_SPEEDUP, (
        f"compacted replay only {replay_speedup:.1f}x faster "
        f"(gate {GATE_REPLAY_SPEEDUP}x)"
    )


def test_cold_query_paging(tmp_path_factory):
    """Pager vs eager restore: latency to the first keyed answer
    from a cold snapshot, and how much of the archive stays on disk."""
    directory = tmp_path_factory.mktemp("tier-bench-cold")
    db = ShardedTSDB(4)
    for s in range(N_SERIES):
        key = _series_key(s)
        for tick in range(POINTS_PER_SERIES):
            db.put(key.metric, tick * CADENCE_S, float(tick % 17),
                   key.tag_dict())
    db.snapshot_to_dir(directory)
    total_points = db.point_count
    probe = _series_key(0)

    def eager_query():
        store = ShardedTSDB.restore_from_dir(directory)
        return store.series_slice(probe)

    def paged_query():
        pager = ColdShardPager(directory)
        return pager.series_slice(probe), pager

    eager_s, eager_slice = _best_of(eager_query)
    paged_s, (paged_slice, pager) = _best_of(paged_query)
    assert len(paged_slice) == len(eager_slice) == POINTS_PER_SERIES
    resident = pager.resident_points
    assert resident < total_points  # only the probe's shard is in RAM

    section = {
        "cold_query": {
            "shards": 4,
            "archive_points": total_points,
            "eager_restore_ms": round(eager_s * 1e3, 1),
            "paged_ms": round(paged_s * 1e3, 1),
            "speedup": round(eager_s / paged_s, 1),
            "resident_points": resident,
            "resident_fraction": round(resident / total_points, 3),
        },
    }
    update_section("tier", section, merge=True)
    print(f"\nBENCH_tier cold query: eager {eager_s * 1e3:.0f} ms vs "
          f"paged {paged_s * 1e3:.0f} ms ({eager_s / paged_s:.1f}x), "
          f"resident {resident:,}/{total_points:,} points")
    # The pager must beat replaying the whole archive and keep most of
    # it out of RAM (1 shard of 4 resident, modulo hash imbalance).
    assert paged_s < eager_s
    assert resident / total_points < 0.5
