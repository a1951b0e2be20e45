"""Batch/per-point equivalence for the columnar ingest path.

The batch path (`PointBatch` → `put_batch` → `SeriesStore.extend_batch`)
must be observationally identical to a sequence of `put` calls: same
out-of-order tolerance, same last-write-wins dedup, same query results —
regardless of where batch boundaries fall.
"""

import numpy as np
import pytest

from repro.tsdb import (
    BatchBuilder,
    DataPoint,
    PointBatch,
    Query,
    SeriesKey,
    TSDB,
    aggregators,
    dumps,
    run_boundaries,
)
from repro.tsdb.series import SeriesStore
from repro.tsdb.aggregators import Cells, Segments
from seed_executor import SCALAR


def random_points(rng, n, n_nodes=4, t_max=2_000):
    """(metric, ts, value, tags) tuples with collisions and disorder."""
    metrics = ["air.co2.ppm", "air.no2.ugm3"]
    out = []
    for _ in range(n):
        out.append(
            (
                metrics[int(rng.integers(len(metrics)))],
                int(rng.integers(0, t_max)),
                float(rng.normal()),
                {"node": f"n{int(rng.integers(n_nodes))}", "city": "trondheim"},
            )
        )
    return out


#: A city feed: 25 nodes × 4 metrics, each series one per arrival round.
FEED_METRICS = ("air.co2.ppm", "air.no2.ugm3", "air.pm10.ugm3",
                "weather.temperature.c")
FEED_SERIES = 25 * len(FEED_METRICS)


def feed_tags(s: int) -> tuple[str, dict]:
    return FEED_METRICS[s % len(FEED_METRICS)], {
        "node": f"ctt-{s // len(FEED_METRICS):02d}", "city": "trondheim",
    }


def arrival_feed(rows_per_series: int, seed: int = 2017):
    """Arrival-ordered (series, ts, value) columns: every series reports
    once a minute, a small per-series phase offset, ~1 % of rows two
    minutes late (LoRaWAN retransmits), so the dedup and out-of-order
    paths run."""
    rng = np.random.default_rng(seed)
    base = np.repeat(np.arange(rows_per_series, dtype=np.int64) * 60, FEED_SERIES)
    series_idx = np.tile(np.arange(FEED_SERIES, dtype=np.int64), rows_per_series)
    ts = base + (series_idx % 7)
    ts[rng.random(ts.shape[0]) < 0.01] -= 120
    return series_idx, ts, rng.normal(400.0, 25.0, size=ts.shape[0])


def feed_flushes(series_idx, ts, values, flush: int) -> list[PointBatch]:
    """The feed as dataport-sized flushes: each flush's rows grouped by
    series (stable, so arrival order holds within a series) and added
    one series run at a time."""
    batches = []
    for lo in range(0, ts.shape[0], flush):
        order = np.argsort(series_idx[lo:lo + flush], kind="stable")
        chunk_series = series_idx[lo:lo + flush][order]
        chunk_ts, chunk_vals = ts[lo:lo + flush][order], values[lo:lo + flush][order]
        builder = BatchBuilder()
        for a, b in zip(*run_boundaries(chunk_series)):
            metric, tags = feed_tags(int(chunk_series[a]))
            builder.add_series(metric, chunk_ts[a:b], chunk_vals[a:b], tags)
        batches.append(builder.build())
    return batches


def db_from_puts(points):
    db = TSDB()
    for m, t, v, tags in points:
        db.put(m, t, v, tags)
    return db


def db_from_batches(points, boundaries):
    """Write the same points split into batches at the given offsets."""
    db = TSDB()
    builder = BatchBuilder()
    cuts = set(boundaries)
    for i, (m, t, v, tags) in enumerate(points):
        builder.add(m, t, v, tags)
        if i in cuts:
            db.put_batch(builder.build())
    db.put_batch(builder.build())
    return db


class TestPutBatchEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_snapshot_identical_for_random_workloads(self, seed):
        rng = np.random.default_rng(seed)
        points = random_points(rng, 3_000)
        boundaries = sorted(rng.choice(3_000, size=7, replace=False).tolist())
        a = db_from_puts(points)
        b = db_from_batches(points, boundaries)
        assert dumps(a) == dumps(b)
        assert a.point_count == b.point_count
        assert a.write_count == b.write_count == 3_000

    def test_duplicate_timestamps_last_write_wins_within_batch(self):
        db = TSDB()
        db.put_batch(
            PointBatch.for_series("m", [10, 10, 10], [1.0, 2.0, 3.0])
        )
        sl = db.run(Query("m", 0, 100)).single()
        assert sl.timestamps.tolist() == [10]
        assert sl.values.tolist() == [3.0]

    def test_duplicate_timestamps_across_batch_boundary(self):
        # The later batch overwrites, exactly as a later put would.
        db = TSDB()
        db.put_series("m", [10, 20], [1.0, 2.0])
        db.put_series("m", [10], [9.0])
        sl = db.run(Query("m", 0, 100)).single()
        assert sl.values.tolist() == [9.0, 2.0]
        # Mirror with per-point puts.
        ref = TSDB()
        for t, v in [(10, 1.0), (20, 2.0), (10, 9.0)]:
            ref.put("m", t, v)
        assert dumps(ref) == dumps(db)

    def test_out_of_order_batch_matches_out_of_order_puts(self):
        ts = [50, 10, 30, 20, 40, 10]
        vals = [5.0, 1.0, 3.0, 2.0, 4.0, 1.5]
        batch_db = TSDB()
        batch_db.put_series("m", ts, vals, {"node": "a"})
        put_db = TSDB()
        for t, v in zip(ts, vals):
            put_db.put("m", t, v, {"node": "a"})
        assert dumps(batch_db) == dumps(put_db)

    def test_batch_then_point_then_batch_interleaving(self):
        db = TSDB()
        db.put_series("m", [0, 10], [0.0, 1.0])
        db.put("m", 5, 0.5)
        db.put_series("m", [7, 3], [0.7, 0.3])
        sl = db.run(Query("m", 0, 100)).single()
        assert sl.timestamps.tolist() == [0, 3, 5, 7, 10]
        assert sl.values.tolist() == [0.0, 0.3, 0.5, 0.7, 1.0]

    @pytest.mark.parametrize("agg", ["avg", "sum", "min", "max", "median", "dev", "count", "first", "last", "p90"])
    def test_query_results_identical(self, agg):
        rng = np.random.default_rng(99)
        points = random_points(rng, 2_000)
        a = db_from_puts(points)
        b = db_from_batches(points, [500, 501, 1500])
        qa = Query("air.co2.ppm", 0, 2_000, tags={"city": "trondheim"}, aggregator=agg)
        ra, rb = a.run(qa).single(), b.run(qa).single()
        assert np.array_equal(ra.timestamps, rb.timestamps)
        assert np.allclose(ra.values, rb.values, equal_nan=True)

    @pytest.mark.parametrize(
        "spec", ["5m-avg", "5m-median", "10m-max-nan", "10m-sum-zero", "15m-avg-previous", "15m-avg-linear", "5m-count-nan", "5m-first-nan", "5m-last-nan", "5m-dev-nan"]
    )
    def test_downsampled_results_identical(self, spec):
        rng = np.random.default_rng(7)
        points = random_points(rng, 2_000)
        a = db_from_puts(points)
        b = db_from_batches(points, [123, 1999])
        q = Query("air.no2.ugm3", 0, 2_000, downsample=spec, group_by=["node"])
        ra, rb = a.run(q), b.run(q)
        assert len(ra) == len(rb)
        for sa, sb in zip(ra, rb):
            assert sa.group_tags == sb.group_tags
            assert np.array_equal(sa.timestamps, sb.timestamps)
            assert np.allclose(sa.values, sb.values, equal_nan=True)

    def test_feed_flushes_equal_per_point_puts(self):
        """The city feed written one ``put`` per row in arrival order and
        as columnar flushes holds the same points, and a probe series
        reads the same columns back."""
        series_idx, ts, values = arrival_feed(rows_per_series=200)
        per_point_db = TSDB()
        for s, t, v in zip(series_idx.tolist(), ts.tolist(), values.tolist()):
            metric, tags = feed_tags(s)
            per_point_db.put(metric, t, v, tags)
        batch_db = TSDB()
        for batch in feed_flushes(series_idx, ts, values, flush=2_000):
            batch_db.put_batch(batch)
        assert batch_db.point_count == per_point_db.point_count
        probe_metric, probe_tags = feed_tags(0)
        q = Query(probe_metric, 0, int(ts.max()), tags=probe_tags)
        a = per_point_db.run(q).single()
        b = batch_db.run(q).single()
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.allclose(a.values, b.values)

    def test_put_many_builds_one_batch(self):
        points = [
            DataPoint.make("m", t, float(t), {"n": "x"}) for t in [5, 1, 3, 1]
        ]
        db = TSDB()
        assert db.put_batch(PointBatch.from_points(points)) == 4
        sl = db.run(Query("m", 0, 10)).single()
        assert sl.timestamps.tolist() == [1, 3, 5]
        assert sl.values.tolist() == [1.0, 3.0, 5.0]  # second t=1 write won

    def test_empty_batch_is_a_noop(self):
        db = TSDB()
        assert db.put_batch(PointBatch.empty()) == 0
        assert db.put_batch(BatchBuilder().build()) == 0
        assert db.series_count == 0


class TestPointBatch:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PointBatch.for_series("m", [1, 2], [1.0])

    def test_key_idx_out_of_range_rejected(self):
        key = SeriesKey.make("m")
        with pytest.raises(ValueError):
            PointBatch((key,), [0, 1], [1, 2], [1.0, 2.0])

    def test_by_series_preserves_row_order_within_series(self):
        builder = BatchBuilder()
        builder.add("m", 10, 1.0, {"n": "a"})
        builder.add("m", 10, 2.0, {"n": "b"})
        builder.add("m", 10, 3.0, {"n": "a"})  # overwrites row 0 on ingest
        batch = builder.build()
        groups = {str(k): (ts.tolist(), v.tolist()) for k, ts, v in batch.by_series()}
        assert groups["m{n=a}"] == ([10, 10], [1.0, 3.0])
        assert groups["m{n=b}"] == ([10], [2.0])

    def test_concat_reencodes_key_dictionaries(self):
        b1 = PointBatch.for_series("m", [1], [1.0], {"n": "a"})
        b2 = PointBatch.for_series("m", [2], [2.0], {"n": "b"})
        b3 = PointBatch.for_series("m", [3], [3.0], {"n": "a"})
        cat = PointBatch.concat([b1, b2, b3])
        assert len(cat) == 3
        assert len(cat.keys) == 2
        db = TSDB()
        db.put_batch(cat)
        assert db.series_count == 2

    def test_builder_names_a_series_once_but_keys_each_batch_afresh(self):
        """``clear`` drops the points and the batch's key dictionary
        (it is written into every block) — not the interned names."""
        builder = BatchBuilder()
        builder.add("m", 1, 1.0, {"n": "a"})
        first = builder.build()
        builder.add("m", 2, 2.0, {"n": "b"})
        second = builder.build(clear=False)
        assert [str(k) for k in second.keys] == ["m{n=b}"]
        builder.clear()
        assert len(builder) == 0 and builder.build().is_empty()
        builder.add("m", 3, 3.0, {"n": "a"})
        third = builder.build()
        assert third.keys[0] is first.keys[0]  # the same key object
        assert third.key_idx.tolist() == [0] and third.timestamps.tolist() == [3]

    def test_builder_add_series_interleaves_with_scalar_adds(self):
        builder = BatchBuilder()
        builder.add("m", 1, 1.0)
        builder.add_series("m", [2, 3], [2.0, 3.0])
        builder.add("m", 4, 4.0)
        assert len(builder) == 4
        db = TSDB()
        db.put_batch(builder.build())
        assert len(builder) == 0  # build() clears
        sl = db.run(Query("m", 0, 10)).single()
        assert sl.timestamps.tolist() == [1, 2, 3, 4]


class TestSeriesStoreExtendBatch:
    def test_fast_path_appends_in_place(self):
        store = SeriesStore()
        store.extend_batch([1, 2, 3], [1.0, 2.0, 3.0])
        store.extend_batch([4, 5], [4.0, 5.0])
        sl = store.scan()
        assert sl.timestamps.tolist() == [1, 2, 3, 4, 5]

    def test_slow_path_merges_with_pending_tail(self):
        store = SeriesStore()
        store.append(10, 10.0)
        store.append(5, 5.0)  # out of order -> tail
        store.extend_batch([7, 5], [7.0, 5.5])
        sl = store.scan()
        assert sl.timestamps.tolist() == [5, 7, 10]
        assert sl.values.tolist() == [5.5, 7.0, 10.0]  # batch overwrote tail

    def test_large_batch_grows_capacity(self):
        store = SeriesStore()
        ts = np.arange(10_000, dtype=np.int64)
        store.extend_batch(ts, ts.astype(np.float64))
        assert len(store) == 10_000
        assert store.latest() == (9_999, 9_999.0)

    def test_shape_mismatch_rejected(self):
        store = SeriesStore()
        with pytest.raises(ValueError):
            store.extend_batch([1, 2], [1.0])


class TestVectorizedAggregators:
    """The algebra over cells and over segments must match the frozen
    scalar definitions, column by column and segment by segment."""

    @pytest.mark.parametrize("name", sorted(set(aggregators.names())))
    def test_columnar_matches_scalar_per_column(self, name):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(6, 40))
        matrix[rng.random(matrix.shape) < 0.3] = np.nan
        matrix[:, 7] = np.nan  # one all-NaN column
        cells = Cells(np.tile(np.arange(40), 6), matrix.ravel(), np.full(40, 6.0))
        expected = np.array([SCALAR[name](matrix[:, j]) for j in range(matrix.shape[1])])
        got = aggregators.lookup(name).reduce(cells)
        assert np.allclose(got, expected, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(set(aggregators.names())))
    def test_grouped_matches_scalar_per_segment(self, name):
        rng = np.random.default_rng(4)
        values = rng.normal(size=200)
        values[rng.random(200) < 0.25] = np.nan
        starts = np.array([0, 3, 50, 51, 120])
        ends = np.concatenate([starts[1:], [200]])
        expected = np.array([SCALAR[name](values[s:e]) for s, e in zip(starts, ends)])
        got = aggregators.lookup(name).reduce(Segments(values, starts))
        assert np.allclose(got, expected, equal_nan=True)

    def test_unknown_name_raises(self):
        with pytest.raises(aggregators.UnknownAggregator):
            aggregators.lookup("nope")
        with pytest.raises(aggregators.UnknownAggregator):
            aggregators.get("nope")

    def test_dev_is_stable_for_large_offsets(self):
        """E[x²]-E[x]² would cancel to 0 here; the two-pass form must not."""
        offset = 1e8
        col = np.array([0.1, 0.2, 0.3, 0.4]) + offset
        expected = float(np.std(col))
        dev = aggregators.lookup("dev").reduce
        assert dev(Cells(np.zeros(4, np.intp), col, np.array([4.0])))[0] == \
            pytest.approx(expected, rel=1e-6)
        assert dev(Segments(col, np.array([0])))[0] == pytest.approx(expected, rel=1e-6)


class TestDeleteBeforeIndexPrune:
    def test_dead_series_leave_no_index_residue(self):
        db = TSDB()
        for i in range(50):
            db.put("churn.metric", i, 1.0, {"node": f"n{i}", "rack": f"r{i % 5}"})
        db.put("kept.metric", 1_000, 1.0, {"node": "survivor"})
        dropped = db.delete_before(500)
        assert dropped == 50
        assert db.metrics() == ["kept.metric"]
        # The leak: empty postings used to linger forever under churn.
        assert db.catalog.tag_keys("churn.metric") == []
        assert db.catalog.cardinality("churn.metric") == 0
        assert "n0" not in db.catalog.tag_values("churn.metric", "node")
        assert db.catalog.tag_values("kept.metric", "node") == ["survivor"]
        assert len(db.catalog) == 1

    def test_index_still_works_after_prune_and_rewrite(self):
        db = TSDB()
        db.put("m", 1, 1.0, {"node": "a"})
        db.delete_before(100)
        db.put("m", 200, 2.0, {"node": "a"})
        res = db.run(Query("m", 0, 300, tags={"node": "a"}))
        assert res.single().values.tolist() == [2.0]

    def test_excluded_rollups_keep_their_index_entries(self):
        db = TSDB()
        db.put("m.rollup", 1, 1.0, {"node": "a"})
        db.put("m", 1, 1.0, {"node": "a"})
        db.delete_before(100, exclude_suffix=".rollup")
        assert db.metrics() == ["m.rollup"]
        assert db.catalog.tag_values("m.rollup", "node") == ["a"]
