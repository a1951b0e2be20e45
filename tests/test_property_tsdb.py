"""Property-based tests (hypothesis) for the TSDB core invariants."""

import io

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.tsdb import (
    Query,
    SeriesKey,
    ShardedTSDB,
    TSDB,
    dumps,
    load,
)
from repro.tsdb.downsample import Downsample
from repro.tsdb.retention import RetentionPolicy
from repro.tsdb.series import SeriesSlice, SeriesStore
from repro.tsdb import aggregators
from repro.tsdb.downsample import (
    FillPolicy,
    apply as apply_downsample,
    apply_many as downsample_many,
)
from test_query_throughput import SCALAR
from test_tsdb_sharded import series_columns

timestamps = st.integers(min_value=0, max_value=2**40)
values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
points = st.lists(st.tuples(timestamps, values), min_size=0, max_size=200)


class TestSeriesStoreProperties:
    @given(points)
    @settings(max_examples=200, deadline=None)
    def test_scan_always_sorted_and_unique(self, pts):
        store = SeriesStore()
        for t, v in pts:
            store.append(t, v)
        sl = store.scan()
        ts = sl.timestamps
        assert np.all(np.diff(ts) > 0)  # strictly increasing: sorted + deduped
        assert len(sl) == len({t for t, _ in pts})

    @given(points)
    @settings(max_examples=100, deadline=None)
    def test_last_write_wins(self, pts):
        store = SeriesStore()
        expected: dict[int, float] = {}
        for t, v in pts:
            store.append(t, v)
            expected[t] = v
        sl = store.scan()
        got = dict(zip(sl.timestamps.tolist(), sl.values.tolist()))
        assert got == expected

    @given(points, timestamps, timestamps)
    @settings(max_examples=100, deadline=None)
    def test_range_scan_is_filter(self, pts, a, b):
        lo, hi = min(a, b), max(a, b)
        store = SeriesStore()
        for t, v in pts:
            store.append(t, v)
        full = store.scan()
        ranged = store.scan(lo, hi)
        mask = (full.timestamps >= lo) & (full.timestamps <= hi)
        assert np.array_equal(ranged.timestamps, full.timestamps[mask])

    @given(points, timestamps)
    @settings(max_examples=100, deadline=None)
    def test_delete_before_counts(self, pts, cutoff):
        store = SeriesStore()
        for t, v in pts:
            store.append(t, v)
        before = len(store.scan())
        dropped = store.delete_before(cutoff)
        after = store.scan()
        assert dropped == before - len(after)
        assert (after.timestamps >= cutoff).all()


metric_names = st.sampled_from(["m.a", "m.b", "air.co2.ppm"])
tag_values = st.sampled_from(["n1", "n2", "n3"])


class TestRoundTripProperties:
    @given(
        st.lists(
            st.tuples(metric_names, timestamps, values, tag_values),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_dump_load_preserves_database(self, rows):
        from repro.tsdb import dumps

        db = TSDB()
        for metric, ts, value, node in rows:
            db.put(metric, ts, value, {"node": node})
        restored = load(io.BytesIO(dumps(db)))
        assert restored.metrics() == db.metrics()
        assert restored.point_count == db.point_count
        for metric in db.metrics():
            q = Query(metric, 0, 2**41)
            a = db.run(q).single()
            b = restored.run(q).single()
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.allclose(a.values, b.values)


class TestDownsampleProperties:
    @given(points, st.sampled_from([60, 300, 3600]))
    @settings(max_examples=100, deadline=None)
    def test_bucket_timestamps_aligned(self, pts, width):
        store = SeriesStore()
        for t, v in pts:
            store.append(t, v)
        out = apply_downsample(store.scan(), Downsample(width, "avg"))
        assert all(int(t) % width == 0 for t in out.timestamps)

    @given(points, st.sampled_from([60, 300]))
    @settings(max_examples=100, deadline=None)
    def test_avg_bucket_within_min_max(self, pts, width):
        assume(pts)
        store = SeriesStore()
        for t, v in pts:
            store.append(t, v)
        sl = store.scan()
        out = apply_downsample(sl, Downsample(width, "avg"))
        lo, hi = sl.values.min(), sl.values.max()
        assert ((out.values >= lo - 1e-9) & (out.values <= hi + 1e-9)).all()

    @given(points, st.sampled_from([60, 300]))
    @settings(max_examples=100, deadline=None)
    def test_count_conserved(self, pts, width):
        """Sum of bucket counts equals the number of deduped points."""
        store = SeriesStore()
        for t, v in pts:
            store.append(t, v)
        sl = store.scan()
        out = apply_downsample(sl, Downsample(width, "count"))
        assert out.values.sum() == len(sl)

    @given(
        st.lists(
            st.tuples(st.integers(0, 10**6), values), min_size=2, max_size=200
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fill_previous_never_creates_new_values(self, pts):
        # Bounded span: gap filling materializes the whole bucket range.
        store = SeriesStore()
        for t, v in pts:
            store.append(t, v)
        out = apply_downsample(
            store.scan(), Downsample(300, "last", FillPolicy.PREVIOUS)
        )
        finite = out.values[np.isfinite(out.values)]
        allowed = set(store.scan().values.tolist())
        assert all(v in allowed for v in finite.tolist())


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_slices=st.integers(1, 8),
        width=st.sampled_from([1, 7, 60]),
        agg=st.sampled_from(sorted(aggregators.names())),
        fill=st.sampled_from(list(FillPolicy)),
        start=st.none() | st.integers(-50, 400),
        end=st.none() | st.integers(-50, 700),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_each_slice_alone(self, seed, n_slices, width, agg,
                                           fill, start, end):
        """A query's groups are downsampled in one pass: whatever shares
        the pass, a slice's buckets are the bytes it gets on its own —
        and those are one scalar aggregate per occupied bucket."""
        rng = np.random.default_rng(seed)
        specials = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])
        slices = []
        for _ in range(n_slices):
            ts = np.flatnonzero(rng.random(600) < rng.choice((0.0, 0.02, 0.2))) - 100
            vals = rng.choice((-1.0, 1.0), ts.shape[0]) * 10.0 ** rng.uniform(
                -3, 8, ts.shape[0])
            odd = rng.random(ts.shape[0]) < 0.2
            vals[odd] = rng.choice(specials, int(odd.sum()))
            slices.append(SeriesSlice(ts.astype(np.int64), vals))
        ds = Downsample(width, agg, fill)
        batch = downsample_many(slices, ds, start, end)
        assert len(batch) == n_slices
        for sl, got in zip(slices, batch):
            alone = apply_downsample(sl, ds, start, end)
            assert got.timestamps.tobytes() == alone.timestamps.tobytes()
            assert got.values.tobytes() == alone.values.tobytes()
            assert got.timestamps.dtype == np.int64
        if fill is FillPolicy.NONE and agg in ("count", "min", "max", "first", "last"):
            # exact aggregators: check against the frozen scalar definition
            scalar = SCALAR[agg]
            for sl, got in zip(slices, batch):
                lo = -np.inf if start is None else start // width * width
                hi = np.inf if end is None else end
                inside = (sl.timestamps >= lo) & (sl.timestamps <= hi)
                ts, vals = sl.timestamps[inside], sl.values[inside]
                want = {}
                for b in np.unique(ts // width):
                    v = scalar(vals[ts // width == b])
                    if not np.isnan(v):
                        want[int(b) * width] = v
                assert got.timestamps.tolist() == sorted(want)
                assert got.values.tolist() == [want[t] for t in sorted(want)]


shard_counts = st.sampled_from([1, 2, 4, 7])
tagged_rows = st.lists(
    st.tuples(metric_names, timestamps, values, tag_values),
    min_size=0,
    max_size=60,
)


class TestShardedProperties:
    @given(tagged_rows, shard_counts)
    @settings(max_examples=40, deadline=None)
    def test_sharded_matches_single_store(self, rows, n):
        single, sharded = TSDB(), ShardedTSDB(n)
        for metric, ts, value, node in rows:
            single.put(metric, ts, value, {"node": node})
            sharded.put(metric, ts, value, {"node": node})
        assert dumps(sharded) == dumps(single)
        for metric in single.metrics():
            a = single.run(Query(metric, 0, 2**41, group_by=["node"]))
            b = sharded.run(Query(metric, 0, 2**41, group_by=["node"]))
            assert a.scanned_points == b.scanned_points
            for ra, rb in zip(a, b):
                assert np.array_equal(ra.timestamps, rb.timestamps)
                assert np.array_equal(ra.values, rb.values, equal_nan=True)

    @given(tagged_rows, shard_counts)
    @settings(max_examples=40, deadline=None)
    def test_merged_query_output_is_globally_sorted(self, rows, n):
        """The fan-out/merge never emits an unsorted or duplicated
        timestamp, whatever the shard layout."""
        sharded = ShardedTSDB(n)
        for metric, ts, value, node in rows:
            sharded.put(metric, ts, value, {"node": node})
        for metric in sharded.metrics():
            res = sharded.run(Query(metric, 0, 2**41, aggregator="sum"))
            for series in res:
                assert np.all(np.diff(series.timestamps) > 0)

    @given(tagged_rows, shard_counts)
    @settings(max_examples=25, deadline=None)
    def test_snapshot_restore_round_trips_per_shard(self, rows, n):
        sharded = ShardedTSDB(n)
        for metric, ts, value, node in rows:
            sharded.put(metric, ts, value, {"node": node})
        restored = load(io.BytesIO(dumps(sharded)), into=ShardedTSDB(n))
        assert dumps(restored) == dumps(sharded)
        # Same keys and columns series by series, not just as bytes.
        assert series_columns(restored) == series_columns(sharded)


class TestQueryProperties:
    @given(
        st.lists(st.tuples(timestamps, values, tag_values), min_size=1, max_size=80)
    )
    @settings(max_examples=50, deadline=None)
    def test_group_by_partitions_scanned_points(self, rows):
        db = TSDB()
        for ts, value, node in rows:
            db.put("m", ts, value, {"node": node})
        grouped = db.run(Query("m", 0, 2**41, group_by=["node"]))
        merged = db.run(Query("m", 0, 2**41))
        assert grouped.scanned_points == merged.scanned_points
        # Each group's series count adds up to the total distinct series.
        assert sum(len(s.source_series) for s in grouped) == db.series_count

    @given(st.lists(st.tuples(timestamps, values), min_size=2, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_rate_of_cumsum_is_nonnegative(self, pts):
        """A monotone counter has a non-negative rate everywhere."""
        db = TSDB()
        ts_sorted = sorted({t for t, _ in pts})
        assume(len(ts_sorted) >= 2)
        running = 0.0
        for i, t in enumerate(ts_sorted):
            running += abs(pts[i % len(pts)][1])
            db.put("counter", t, running)
        res = db.run(Query("counter", 0, 2**41, rate=True)).single()
        assert (res.values >= 0.0).all()


# ---------------------------------------------------------------------------
# A scan is a snapshot: a read-only view that stays what it was
# ---------------------------------------------------------------------------

_SNAP_METRIC = "m"
_SNAP_TAGS = ({"node": "a"}, {"node": "b"}, {"node": "c"})
_SNAP_KEYS = tuple(SeriesKey.make(_SNAP_METRIC, tags) for tags in _SNAP_TAGS)
_SNAP_PRELOAD = 10  # points per series before the first operation

_snapshot_ops = st.lists(
    st.tuples(
        st.sampled_from((
            "append", "late", "extend", "unordered", "grow", "compact",
            "delete", "scan", "scan",
        )),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=40,
)


class _BareSeries:
    """The operations on :class:`SeriesStore` itself."""

    def __init__(self) -> None:
        self.series = [SeriesStore() for _ in _SNAP_KEYS]

    def append(self, i, t, v):
        self.series[i].append(t, v)

    def extend(self, i, ts, vals):
        self.series[i].extend_batch(ts, vals)

    def delete(self, i, cutoff):
        self.series[i].delete_before(cutoff)

    def compact(self, i):
        self.series[i]._compact()

    def scan(self, i, lo, hi):
        return self.series[i].scan(lo, hi)


class _ThroughStore:
    """The same operations through a store's write and read surface."""

    def __init__(self, db) -> None:
        self.db = db

    def append(self, i, t, v):
        self.db.put(_SNAP_METRIC, t, v, _SNAP_TAGS[i])

    def extend(self, i, ts, vals):
        self.db.put_series(_SNAP_METRIC, ts, vals, _SNAP_TAGS[i])

    def delete(self, i, cutoff):
        self.db.delete_series_before(_SNAP_KEYS[i], cutoff)

    def compact(self, i):
        self.db.series_latest(_SNAP_KEYS[i])  # reads compact first

    def scan(self, i, lo, hi):
        return self.db.series_slice(_SNAP_KEYS[i], lo, hi)


def _preload(target) -> list[int]:
    ts = np.arange(1, _SNAP_PRELOAD + 1, dtype=np.int64) * 10
    for i in range(len(_SNAP_KEYS)):
        target.extend(i, ts, ts * 0.5 + i)
    return [int(ts[-1])] * len(_SNAP_KEYS)


def _drive_and_hold(target, ops, top: list[int]) -> list:
    """Run ``ops``; return every scan taken with the eager copy of both
    columns made at that moment.  ``top`` is the newest timestamp
    written per series."""
    held = []
    for kind, seed in ops:
        rng = np.random.default_rng(seed)
        i = int(rng.integers(len(_SNAP_KEYS)))
        if kind == "append":
            top[i] += int(rng.integers(1, 100))
            target.append(i, top[i], float(rng.normal()))
        elif kind == "late":  # at or below the newest: the unsorted tail
            target.append(i, int(rng.integers(0, top[i] + 1)), float(rng.normal()))
        elif kind in ("extend", "grow"):  # in order; grow: past capacity
            n = 300 if kind == "grow" else int(rng.integers(1, 20))
            ts = top[i] + np.cumsum(rng.integers(1, 50, n))
            top[i] = int(ts[-1])
            target.extend(i, ts, rng.normal(size=n))
        elif kind == "unordered":  # duplicates and history rewritten
            n = int(rng.integers(1, 20))
            ts = rng.integers(0, top[i] + 200, n)
            top[i] = max(top[i], int(ts.max()))
            target.extend(i, ts, rng.normal(size=n))
        elif kind == "compact":
            target.compact(i)
        elif kind == "delete":
            target.delete(i, int(rng.integers(0, top[i] + 2)))
        else:
            lo, hi = sorted(rng.integers(0, top[i] + 2, 2).tolist())
            sl = target.scan(
                i, None if rng.random() < 0.3 else lo,
                None if rng.random() < 0.3 else hi,
            )
            held.append((sl, sl.timestamps.copy(), sl.values.copy()))
    return held


def _assert_still_the_snapshots(held) -> None:
    for sl, ts, vals in held:
        assert sl.timestamps.tobytes() == ts.tobytes()
        assert sl.values.tobytes() == vals.tobytes()
        assert not sl.timestamps.flags.writeable
        assert not sl.values.flags.writeable
        if len(sl):
            with pytest.raises(ValueError, match="read-only"):
                sl.values[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                sl.timestamps[:1] += 1


class TestScanIsASnapshot:
    """Nothing below ``_n`` is written in place, so the view a scan
    hands out equals, for as long as it is held, the copy it replaced —
    whatever is appended, merged, grown, compacted or deleted after."""

    @given(_snapshot_ops)
    @settings(max_examples=150, deadline=None)
    def test_series_store(self, ops):
        target = _BareSeries()
        held = _drive_and_hold(target, ops, _preload(target))
        _assert_still_the_snapshots(held)

    @pytest.mark.parametrize("make", [TSDB, lambda: ShardedTSDB(4)],
                             ids=["single", "sharded4"])
    @given(ops=_snapshot_ops)
    @example(ops=[("delete", 316), ("scan", 14)])  # a series deleted whole
    @settings(max_examples=60, deadline=None)
    def test_series_slice_through_a_store(self, make, ops):
        target = _ThroughStore(make())
        held = _drive_and_hold(target, ops, _preload(target))
        _assert_still_the_snapshots(held)

    @pytest.mark.parametrize("policy", [
        RetentionPolicy.parse("500s:5m-avg:.rollup", max_age=2_000),
        RetentionPolicy.parse("500s:5m-avg:.5m", "1000s:10m-avg:.10m"),
    ], ids=["retention", "tiers"])
    def test_rollup_passes_hold_views_across_their_writes(
        self, policy, monkeypatch
    ):
        """A pass keeps every ``old = db.series_slice(...)`` of a stage
        across the stage's rollup batch and the deletes that follow."""
        def loaded():
            db = ShardedTSDB(4)
            ts = np.arange(0, 3_000, 30, dtype=np.int64)
            for tags in _SNAP_TAGS:
                db.put_series(_SNAP_METRIC, ts, np.sin(ts / 100.0), tags)
            return db

        held = []
        real = ShardedTSDB.series_slice

        def holding(store, key, start=None, end=None):
            sl = real(store, key, start, end)
            held.append((sl, sl.timestamps.copy(), sl.values.copy()))
            return sl

        def copying(store, key, start=None, end=None):
            sl = real(store, key, start, end)
            return SeriesSlice(sl.timestamps.copy(), sl.values.copy())

        over_views, over_copies = loaded(), loaded()
        monkeypatch.setattr(ShardedTSDB, "series_slice", holding)
        report = policy.enforce(over_views, now=3_000)
        monkeypatch.setattr(ShardedTSDB, "series_slice", copying)
        assert policy.enforce(over_copies, now=3_000) == report
        monkeypatch.undo()
        assert len(held) >= len(_SNAP_TAGS)
        _assert_still_the_snapshots(held)
        assert dumps(over_views) == dumps(over_copies) != dumps(loaded())
