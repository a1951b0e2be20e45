"""Durability throughput of the segment format.

Measures the persistence hops on the same 1M-point workload the ingest
benchmark uses — WAL append, WAL replay, and snapshot/restore — plus
the WAL's bytes per point, records them in a ``persistence`` section of
``BENCH_ingest.json``, and asserts that every hop restores the store
state the live process built, byte for byte.
"""

from __future__ import annotations

import time

import numpy as np

from repro.tsdb import SegmentWriter, TSDB, dumps, load, snapshot

from bench_io import update_section  # noqa: E402
from test_ingest_throughput import (  # same dir; pytest puts it on sys.path
    FLUSH_SIZE,
    N_SERIES,
    columnar_ingest,
    series_tags,
    workload,  # noqa: F401  (pytest fixture)
)


def build_flush_batches(series_idx, ts, values, tag_cache):
    """The workload as dataport-sized PointBatches (the WAL append unit)."""
    from repro.tsdb import BatchBuilder, run_boundaries

    batches = []
    n = ts.shape[0]
    for lo in range(0, n, FLUSH_SIZE):
        hi = min(lo + FLUSH_SIZE, n)
        builder = BatchBuilder()
        chunk_series = series_idx[lo:hi]
        order = np.argsort(chunk_series, kind="stable")
        chunk_series = chunk_series[order]
        chunk_ts = ts[lo:hi][order]
        chunk_vals = values[lo:hi][order]
        starts, ends = run_boundaries(chunk_series)
        for s, e in zip(starts, ends):
            metric, tags = tag_cache[int(chunk_series[s])]
            builder.add_series(metric, chunk_ts[s:e], chunk_vals[s:e], tags)
        batches.append(builder.build())
    return batches


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_segment_persistence_round_trips(workload, tmp_path):  # noqa: F811
    series_idx, ts, values = workload
    n = ts.shape[0]
    tag_cache = [series_tags(s) for s in range(N_SERIES)]
    batches = build_flush_batches(series_idx, ts, values, tag_cache)
    db = TSDB()
    ingest_s = columnar_ingest(db, series_idx, ts, values, tag_cache)

    # --- WAL append: one write_batch per dataport flush ----------------
    wal = tmp_path / "wal.seg"

    def append():
        with SegmentWriter(wal) as w:
            for batch in batches:
                w.write_batch(batch)

    append_s, _ = timed(append)

    # --- WAL replay ----------------------------------------------------
    replay_s, replayed = timed(lambda: load(wal))
    assert dumps(replayed) == dumps(db), "replay equivalence broken"

    # --- snapshot + restore --------------------------------------------
    snap = tmp_path / "snap.seg"
    snap_s, points = timed(lambda: snapshot(db, snap))
    assert points == db.point_count
    restore_s, restored = timed(lambda: load(snap))
    assert dumps(restored) == dumps(db), "restore equivalence broken"

    def fmt(seconds: float) -> dict:
        return {
            "seconds": round(seconds, 3),
            "points_per_sec": round(n / seconds) if seconds else None,
        }

    wal_bytes = wal.stat().st_size
    report = {
        "workload_points": n,
        "flush_size": FLUSH_SIZE,
        "ingest_reference_seconds": round(ingest_s, 3),
        "wal_append": fmt(append_s),
        "wal_replay": fmt(replay_s),
        "snapshot": fmt(snap_s),
        "restore": fmt(restore_s),
        "wal_bytes": wal_bytes,
        "wal_bytes_per_point": round(wal_bytes / n, 2),
    }
    update_section("persistence", report)
    print(
        f"\nBENCH_persist: append {n / append_s:,.0f} pts/s, "
        f"replay {n / replay_s:,.0f} pts/s, snapshot {n / snap_s:,.0f} pts/s, "
        f"restore {n / restore_s:,.0f} pts/s, wal {wal_bytes:,} bytes "
        f"({wal_bytes / n:.2f} B/point)"
    )
