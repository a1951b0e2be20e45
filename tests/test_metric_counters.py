"""The per-metric counters and the short-cut they give the validators.

A store keeps two counters per metric beside ``metric_generation``:
``metric_write_generation`` moves with every mutation of any series of
the metric (and every series created or removed under it),
``metric_reshape_generation`` with every non-append mutation (and every
create or remove).  The result cache and the refresher take "the
metric's counter held still" as "every series under it held still" and
only then fall back to the per-series check.  So, under hypothesis-drawn
interleavings of every kind of write — in-order, out-of-order and
duplicate batches, single puts, both deletes, a series emptied and
created again, the retention pass — on ``TSDB`` under
``CachingStore(DurableStore(ReplicatedStore(store)))``:

- each counter moved exactly when a series of its metric changed
  (reshaped), or the metric's series set did;
- ``CachingStore.run_many`` ≡ the innermost store's ``run_many``;
- ``CachingStore.run_many`` on a moved window ≡ a fresh run of the same panels.

And the order the short-cut's soundness rests on: the counters have
moved by the time a series' columns change, on the fast append path and
on the merge path alike.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import ReplicatedStore
from repro.serve import CachingStore
from repro.tsdb import (
    DataPoint,
    DurableStore,
    PointBatch,
    Query,
    SeriesKey,
    TSDB,
    wire,
)
from repro.tsdb import series as series_module
from repro.tsdb.retention import RetentionPolicy

_RAW = ("m.a", "m.b")
_ROLLED = tuple(m + ".r" for m in _RAW)
_METRICS = _RAW + _ROLLED
_KEYS = [
    SeriesKey.make(m, {"node": node, "city": city})
    for m in _RAW for node in ("n0", "n1", "n2") for city in ("x", "y")
]
_POLICIES = (
    RetentionPolicy.parse("300:100s-avg:.r"),
    RetentionPolicy.parse("300:100s-avg:.r", max_age=900),
)
#: A window end past every write: its panels keep their cache keys, so
#: later requests hit (or invalidate) instead of missing on a new key.
_FAR = 10**6


def _panels(end: int) -> list[Query]:
    out = []
    for m in _METRICS:
        out.append(Query(m, 0, end, tags={"city": "x"}, downsample="100s-avg"))
        out.append(Query(m, 0, end, group_by=("node",)))
        out.append(Query(m, 0, end, tags={"node": "n1"}, aggregator="max"))
    return out


def _history(db) -> dict:
    """Per metric: its three counters and each live series' two."""
    out = {}
    for m in _METRICS:
        out[m] = (
            db.metric_write_generation(m),
            db.metric_reshape_generation(m),
            db.metric_generation(m),
            {
                key: (db.series_generation(key), db.series_reshape_generation(key))
                for key in db.series_for_metric(m)
            },
        )
    return out


def _assert_counters_moved_exactly(before: dict, after: dict) -> None:
    for m in _METRICS:
        w0, r0, g0, series0 = before[m]
        w1, r1, g1, series1 = after[m]
        assert w1 >= w0 and r1 >= r0
        churned = g1 != g0 or series0.keys() != series1.keys()
        written = churned or any(series0[k][0] != series1[k][0] for k in series0)
        reshaped = churned or any(series0[k][1] != series1[k][1] for k in series0)
        assert (w1 != w0) == written, m
        assert (r1 != r0) == reshaped, m


def _step(data, db, now: int) -> int:
    """Apply one drawn mutation through the stack; returns the new now."""
    kind = data.draw(st.sampled_from((
        "in_order", "out_of_order", "put", "delete_before",
        "delete_series_before", "recreate", "enforce", "nothing",
    )))
    if kind == "nothing":
        return now
    if kind == "in_order":
        keys = data.draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4,
                                  unique=True))
        n = data.draw(st.integers(1, 5))
        step = data.draw(st.integers(1, 60))
        points = [DataPoint(key, now + step * (i + 1), float(i + len(str(key))))
                  for key in keys for i in range(n)]
        db.put_batch(PointBatch.from_points(points))
        return now + step * n
    if kind == "out_of_order":
        rows = data.draw(st.lists(
            st.tuples(st.sampled_from(_KEYS), st.integers(0, max(now, 1)),
                      st.integers(-9, 9)),
            min_size=1, max_size=8))
        rows += rows[: data.draw(st.integers(0, 2))]  # duplicates
        db.put_batch(PointBatch.from_points(
            [DataPoint(key, t, float(v)) for key, t, v in rows]))
        return now
    if kind == "put":
        key = data.draw(st.sampled_from(_KEYS))
        t = data.draw(st.sampled_from((now + 7, max(now - 30, 0), now)))
        db.put(key.metric, t, float(t % 11), key.tag_dict())
        return max(now, t)
    if kind == "delete_before":
        cutoff = data.draw(st.integers(0, now + 1))
        suffix = data.draw(st.sampled_from((None, ".r")))
        db.delete_before(cutoff, exclude_suffix=suffix)
        return now
    if kind == "delete_series_before":
        db.delete_series_before(data.draw(st.sampled_from(_KEYS)),
                                data.draw(st.integers(0, now + 1)))
        return now
    if kind == "recreate":
        key = data.draw(st.sampled_from(_KEYS))
        db.delete_series_before(key, now + 1)  # emptied: gone from the catalog
        db.put(key.metric, now + 1, 3.0, key.tag_dict())
        return now + 1
    policy = data.draw(st.sampled_from(_POLICIES))
    policy.enforce(db, now, tags=data.draw(st.sampled_from((None, {"city": "x"}))))
    return now


@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_the_short_cut_is_the_per_series_check(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inner = TSDB()
        durable = DurableStore(ReplicatedStore(inner), tmp / "wal.seg")
        caching = CachingStore(durable)
        now = 10
        try:
            for _ in range(data.draw(st.integers(1, 10))):
                before = _history(caching)
                now = _step(data, caching, now)
                _assert_counters_moved_exactly(before, _history(caching))
                panels = _panels(data.draw(st.sampled_from((now, now + 25, _FAR))))
                got = caching.run_many(panels)
                assert wire.encode_response_json(got) == wire.encode_response_json(
                    inner.run_many(panels))
                assert wire.encode_response_json(
                    caching.run_many(panels)
                ) == wire.encode_response_json(inner.run_many(panels))
        finally:
            durable.close()


@pytest.mark.parametrize("path", ["append", "merge"])
def test_the_counters_move_before_the_columns_change(monkeypatch, path):
    """Where a write replaces or extends a series' columns, the metric's
    counters already say so: a reader that saw the old counter value
    cannot have seen the new columns."""
    db = TSDB()
    key = db.put("m.a", 100, 1.0, {"node": "n0"})
    store = db._series(key)
    seen = []
    real_merge = series_module._merge_last_wins

    def merge(ts_parts, val_parts):
        seen.append(("merge", db.metric_write_generation("m.a"),
                     db.metric_reshape_generation("m.a")))
        return real_merge(ts_parts, val_parts)

    monkeypatch.setattr(series_module, "_merge_last_wins", merge)
    writes = db.metric_write_generation("m.a")
    reshapes = db.metric_reshape_generation("m.a")
    if path == "append":
        # The fast path writes into the columns in place: watch the
        # first write into them.
        class Watched(np.ndarray):
            def __setitem__(self, index, value):
                seen.append(("write", db.metric_write_generation("m.a"),
                             db.metric_reshape_generation("m.a")))
                super().__setitem__(index, value)

        ts, vals, n = store._cols
        store._cols = (ts.view(Watched), vals, n)
        db.put_column(key, np.array([200, 300]), np.array([2.0, 3.0]))
        assert seen and seen[0] == ("write", writes + 1, reshapes)
    else:
        db.put_column(key, np.array([50, 100]), np.array([0.5, 1.5]))
        assert seen == [("merge", writes + 1, reshapes + 1)]
    assert db.series_generation(key) == 2
