"""What one cold dashboard batch costs, as counts — not clocks.

The e2e wall (12 panels: per metric a 30 m average, an hourly maximum
of the cross-node deviation and a per-node hourly average) over 4
metrics x 25 nodes x 2 400 points on ``ShardedTSDB(4)``, nodes offset
by 0-6 s so no two share a second, and counting wrappers around what a
cold ``run_many`` should *not* do: copy the columns it scans, hold more
than one filter's alignment, hand out a result that still points into
the store, or build a NaN mask for data that holds no NaN.  Every
count is deterministic; bytes and peaks are counted, never timed.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.tsdb.aggregators as aggregators_module
import repro.tsdb.plan as plan_module
from repro.serve import CachingStore
from repro.tsdb import BatchBuilder, Query, ShardedTSDB, TSDB, wire
from test_refresh_costs import CITY, NODES, _dashboard
from test_serve_conditional import METRICS

POINTS = 2_400  # per series, one a minute: forty hours
END = POINTS * 60


def _wall(start: int = 0) -> list[Query]:
    return _dashboard(start, END)


def _history(db, *, nan_at: int | None = None):
    """The wall's history; ``nan_at`` puts one NaN in the first series."""
    rng = np.random.default_rng(24)
    builder = BatchBuilder()
    for m, metric in enumerate(METRICS):
        for n, node in enumerate(NODES):
            ts = np.arange(POINTS, dtype=np.int64) * 60 + (4 * n + m) % 7
            values = rng.normal(400.0, 25.0, POINTS)
            if nan_at is not None and m == n == 0:
                values[nan_at] = np.nan
            builder.add_series(metric, ts, values, {**CITY, "node": node})
    db.put_batch(builder.build())
    return db


@pytest.fixture
def db():
    return _history(ShardedTSDB(4))


def _columns(db) -> list[np.ndarray]:
    """Both columns of every series the store holds."""
    out = []
    for metric in db.metrics():
        for key in db.series_for_metric(metric):
            series = db._series(key)
            out += [series._ts, series._vals]
    return out


def _arrays(results) -> list[np.ndarray]:
    return [a for r in results for s in r.series for a in (s.timestamps, s.values)]


def _assert_own_columns(results, db) -> None:
    columns = _columns(db)
    assert columns
    for a in _arrays(results):
        assert not any(np.may_share_memory(a, column) for column in columns)


# ---------------------------------------------------------------------------
# Stage 1: a scan is a view, and a result is not
# ---------------------------------------------------------------------------


def test_scans_copy_nothing_and_results_own_their_columns(db, monkeypatch):
    scanned = []
    real = ShardedTSDB.series_slice

    def series_slice(store, key, start=None, end=None):
        sl = real(store, key, start, end)
        scanned.append((key, sl))
        return sl

    monkeypatch.setattr(ShardedTSDB, "series_slice", series_slice)
    results = db.run_many(_wall(60))
    # one scan per distinct touched series, each a read-only window on
    # the series' own columns: bytes copied by scans, 0 (parent: all)
    assert len(scanned) == len(METRICS) * len(NODES)
    for key, sl in scanned:
        series = db._series(key)
        assert len(sl) == POINTS - 1
        assert np.shares_memory(sl.timestamps, series._ts)
        assert np.shares_memory(sl.values, series._vals)
        assert not sl.timestamps.flags.writeable
        assert not sl.values.flags.writeable
    assert sum(len(r.series) for r in results) == len(METRICS) * (2 + len(NODES))
    _assert_own_columns(results, db)


@pytest.mark.parametrize("make", [TSDB, lambda: ShardedTSDB(4)],
                         ids=["single", "sharded4"])
def test_an_undownsampled_lone_series_is_copied_out_of_the_store(make):
    """The one plan that hands a scan through: a lone series that is its
    own aggregate, no downsample between the store and the result."""
    db = _history(make())
    lone = {**CITY, "node": NODES[3]}
    queries = [Query(METRICS[0], 600, END, tags=lone, aggregator=name)
               for name in ("min", "max", "avg", "sum", "last", "p95")]
    queries.append(Query(METRICS[1], 0, END, tags=CITY, group_by=("node",)))
    results = db.run_many(queries)
    _assert_own_columns(results, db)
    for res in results:
        for s in res.series:
            assert s.timestamps.flags.writeable and s.values.flags.writeable
            assert s.timestamps.base is None and s.values.base is None


# ---------------------------------------------------------------------------
# Satellite: sibling results and cache entries do not share arrays
# ---------------------------------------------------------------------------


def _one_series(db):
    for t in range(0, 600, 60):
        db.put("m", t, float(t) + 1.0)
    return db


@pytest.mark.parametrize("make", [
    lambda: TSDB(),
    lambda: ShardedTSDB(4),
    lambda: CachingStore(TSDB()),
    lambda: CachingStore(ShardedTSDB(4)),
], ids=["single", "sharded4", "cached-single", "cached-sharded4"])
def test_writing_through_a_result_changes_nothing_else(make):
    """At the parent ``min`` and ``max`` over one series were the same
    two arrays — the scan's — and so was the cache's entry: one write
    through a result changed its sibling and every later answer."""
    store = _one_series(make())
    q_min = Query("m", 0, 600, aggregator="min")
    q_max = Query("m", 0, 600, aggregator="max")
    r_min, r_max = store.run_many([q_min, q_max])
    assert not np.shares_memory(r_min.series[0].values, r_max.series[0].values)
    assert not np.shares_memory(r_min.series[0].timestamps,
                                r_max.series[0].timestamps)
    before = wire.encode_response([r_min, r_max])
    try:
        r_min.series[0].slice.values[0] = 999.0
        r_min.series[0].slice.timestamps[0] = -5
    except ValueError as exc:  # shared on purpose (a cache entry): frozen
        assert "read-only" in str(exc)
        wrote = False
    else:
        wrote = True
    assert wrote != isinstance(store, CachingStore)
    # no sibling, no cache entry, no later answer, and not the store
    assert wire.encode_response([r_max]) == {**before, "results": before["results"][1:]}
    assert wire.encode_response(store.run_many([q_min, q_max])) == before
    assert wire.encode_response([store.run(q_max), store.run(q_min)])["results"] \
        == before["results"][::-1]
    assert store.series_slice(r_min.series[0].source_series[0]).values[0] == 1.0


def test_cached_results_are_frozen_downsampled_too(db):
    cached = CachingStore(db)
    first = cached.run_many(_wall())
    for a in _arrays(first):
        assert not a.flags.writeable
    again = cached.run_many(_wall())
    assert all(a.series is b.series for a, b in zip(first, again))
    _assert_own_columns(first, db)


# ---------------------------------------------------------------------------
# Stage 2: one filter's alignment at a time
# ---------------------------------------------------------------------------


def test_a_batch_aligns_once_per_filter_and_holds_one_alignment(db, monkeypatch):
    made: list[weakref.ref] = []
    alive_when_aligning: list[int] = []
    real = plan_module.align

    def align(slices):
        alive_when_aligning.append(sum(ref() is not None for ref in made))
        all_ts, cells = real(slices)
        made.append(weakref.ref(cells))
        return all_ts, cells

    monkeypatch.setattr(plan_module, "align", align)
    # filters interleaved panel by panel: grouping is the planner's job
    wall = _wall()
    interleaved = [wall[3 * m + p] for p in range(3) for m in range(len(METRICS))]
    results = db.run_many(interleaved)
    # the avg and the dev panel of a metric share one alignment; the
    # per-node panel aggregates lone series and aligns nothing
    assert len(made) == len(METRICS)
    # alignments alive whenever a new one is made: 0 (parent: 0 1 2 3)
    assert alive_when_aligning == [0] * len(METRICS)
    assert all(ref() is None for ref in made)
    monkeypatch.undo()
    expected = db.run_many(wall)
    for m in range(len(METRICS)):
        for p in range(3):
            got = results[p * len(METRICS) + m]
            assert wire.encode_response([got]) == wire.encode_response(
                [expected[3 * m + p]])


def test_a_cold_batch_allocates_less_than_it_scans(db):
    """``tracemalloc`` peak of one cold 12-panel ``run_many`` against
    the bytes of the points it scans (16 a point): parent 2.9 x — a
    copy of every column, then every filter's cells and masks at once."""
    db.run_many(_wall(120))  # imports, lazy caches, allocator warm-up
    queries = _wall(60)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results = db.run_many(queries)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    scanned = 16 * len(METRICS) * max(r.scanned_points for r in results)
    assert scanned == 16 * len(METRICS) * len(NODES) * (POINTS - 1)
    assert peak <= 1.0 * scanned, f"{peak / scanned:.2f} x the bytes scanned"


# ---------------------------------------------------------------------------
# Stage 3: no mask without a NaN
# ---------------------------------------------------------------------------


class _MaskCounts:
    def __init__(self, monkeypatch) -> None:
        self.cells = []  # every alignment of the batch, kept alive
        self.grouped_masks = []  # per grouped reduction: was a mask built
        real_align = plan_module.align
        real_counts = aggregators_module._seg_counts

        def align(slices):
            all_ts, cells = real_align(slices)
            self.cells.append(cells)
            return all_ts, cells

        def _seg_counts(values, starts):
            finite, counts = real_counts(values, starts)
            self.grouped_masks.append(finite is not None)
            return finite, counts

        monkeypatch.setattr(plan_module, "align", align)
        monkeypatch.setattr(aggregators_module, "_seg_counts", _seg_counts)

    def masks_built(self) -> int:
        return sum("finite" in c.__dict__ for c in self.cells) + sum(
            self.grouped_masks)


def test_nan_free_data_builds_no_mask(db, monkeypatch):
    counts = _MaskCounts(monkeypatch)
    db.run_many(_wall())
    assert len(counts.cells) == len(METRICS)
    assert len(counts.grouped_masks) == len(_wall())
    assert counts.masks_built() == 0
    assert all(c.nan_free for c in counts.cells)


def test_one_nan_is_masked_where_it_is_and_nowhere_else(monkeypatch):
    db = _history(ShardedTSDB(4), nan_at=POINTS // 2)
    clean = _history(ShardedTSDB(4))
    counts = _MaskCounts(monkeypatch)
    results = db.run_many(_wall())
    reply = wire.encode_response(results)
    # the first metric's alignment holds the NaN; its cross-node panels
    # reduce to finite values, its per-node panel downsamples the NaN
    assert [c.nan_free for c in counts.cells] == [False, True, True, True]
    assert counts.masks_built() == 2
    assert counts.grouped_masks == [False, False, True] + [False] * 9
    monkeypatch.undo()
    # and away from the NaN not a bit differs from the clean history
    want = wire.encode_response(clean.run_many(_wall()))
    differing = [
        (i, j, t)
        for i, (a, b) in enumerate(zip(reply["results"], want["results"]))
        for j, (sa, sb) in enumerate(zip(a["series"], b["series"]))
        for t in sa["dps"] if sa["dps"][t] != sb["dps"].get(t)
    ]
    # only the NaN's own bucket, only in the three panels that read it
    # (an hour's maximum deviation need not move)
    nan_t = POINTS // 2 * 60
    assert {(0, 0), (2, 0)} <= {(i, j) for i, j, _ in differing} <= {
        (0, 0), (1, 0), (2, 0)}
    assert all(int(t) <= nan_t < int(t) + 3600 for _, _, t in differing)
