"""Durability throughput: text line protocol vs binary columnar segments.

Measures the three persistence hops on the same 1M-point workload the
ingest benchmark uses — WAL append, WAL replay, and snapshot/restore —
in both formats, records them in a ``persistence`` section of
``BENCH_ingest.json``, and gates the tentpole claim: the binary segment
path must replay and snapshot/restore at least 10× faster than the line
protocol, while restoring byte-identical store state.
"""

from __future__ import annotations

import time

import numpy as np

from repro.tsdb import (
    LogWriter,
    SegmentWriter,
    TSDB,
    dumps,
    load,
    snapshot,
)

import bench_io  # noqa: E402
from bench_io import update_section  # noqa: E402
from test_ingest_throughput import (  # same dir; pytest puts it on sys.path
    FLUSH_SIZE,
    N_SERIES,
    columnar_ingest,
    series_tags,
    workload,  # noqa: F401  (pytest fixture)
)

#: The binary path must beat the line protocol by at least this factor
#: on replay and snapshot/restore (the ISSUE 4 acceptance bar).
REQUIRED_SPEEDUP = 10.0


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


def test_binary_persistence_at_least_10x_faster(workload, tmp_path):  # noqa: F811
    series_idx, ts, values = workload
    n = ts.shape[0]
    tag_cache = [series_tags(s) for s in range(N_SERIES)]
    batches = build_flush_batches(series_idx, ts, values, tag_cache)

    # --- WAL append: one write_batch per dataport flush ----------------
    def append_with(writer_cls, path):
        with writer_cls(path) as w:
            for batch in batches:
                w.write_batch(batch)
        return path

    text_append_s, text_wal = timed(
        lambda: append_with(LogWriter, tmp_path / "wal.log")
    )
    bin_append_s, bin_wal = timed(
        lambda: append_with(SegmentWriter, tmp_path / "wal.seg")
    )

    # --- WAL replay ----------------------------------------------------
    text_replay_s, from_text = timed(lambda: load(text_wal))
    bin_replay_s, from_bin = timed(lambda: load(bin_wal))
    assert dumps(from_bin) == dumps(from_text), "replay equivalence broken"

    # --- snapshot + restore --------------------------------------------
    db = TSDB()
    ingest_s = columnar_ingest(db, series_idx, ts, values, tag_cache)
    text_snap_s, text_points = timed(
        lambda: snapshot(db, tmp_path / "snap.log", format="text")
    )
    bin_snap_s, bin_points = timed(
        lambda: snapshot(db, tmp_path / "snap.seg", format="binary")
    )
    assert text_points == bin_points == db.exact_point_count()
    text_restore_s, r_text = timed(lambda: load(tmp_path / "snap.log"))
    bin_restore_s, r_bin = timed(lambda: load(tmp_path / "snap.seg"))
    assert dumps(r_bin) == dumps(r_text) == dumps(db), "restore equivalence broken"

    replay_speedup = text_replay_s / bin_replay_s
    snap_restore_speedup = (text_snap_s + text_restore_s) / (
        bin_snap_s + bin_restore_s
    )

    def fmt(seconds: float) -> dict:
        return {
            "seconds": round(seconds, 3),
            "points_per_sec": round(n / seconds) if seconds else None,
        }

    report = {
        "workload_points": n,
        "flush_size": FLUSH_SIZE,
        "ingest_reference_seconds": round(ingest_s, 3),
        "text": {
            "wal_append": fmt(text_append_s),
            "wal_replay": fmt(text_replay_s),
            "snapshot": fmt(text_snap_s),
            "restore": fmt(text_restore_s),
            "wal_bytes": text_wal.stat().st_size,
        },
        "binary": {
            "wal_append": fmt(bin_append_s),
            "wal_replay": fmt(bin_replay_s),
            "snapshot": fmt(bin_snap_s),
            "restore": fmt(bin_restore_s),
            "wal_bytes": bin_wal.stat().st_size,
        },
        "speedup": {
            "wal_append": round(text_append_s / bin_append_s, 1),
            "wal_replay": round(replay_speedup, 1),
            "snapshot_restore": round(snap_restore_speedup, 1),
        },
    }
    update_section("persistence", report)
    print(
        f"\nBENCH_persist: append {n / text_append_s:,.0f} -> "
        f"{n / bin_append_s:,.0f} pts/s ({text_append_s / bin_append_s:.1f}x), "
        f"replay {n / text_replay_s:,.0f} -> {n / bin_replay_s:,.0f} pts/s "
        f"({replay_speedup:.1f}x), snapshot+restore "
        f"{snap_restore_speedup:.1f}x, wal bytes "
        f"{text_wal.stat().st_size:,} -> {bin_wal.stat().st_size:,}"
    )

    if bench_io.recording:  # wall-clock gates: make bench* / CI only
        assert replay_speedup >= REQUIRED_SPEEDUP, (
            f"binary replay only {replay_speedup:.1f}x faster than text"
        )
        assert snap_restore_speedup >= REQUIRED_SPEEDUP, (
            f"binary snapshot/restore only {snap_restore_speedup:.1f}x faster"
        )
