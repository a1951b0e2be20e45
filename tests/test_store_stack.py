"""The store stack is one write surface and one format.

``CachingStore(DurableStore(ReplicatedStore(store)))`` is the supported
order.  Whatever entry point a write comes in by — the derived
``put`` / ``put_point`` / ``put_series`` / ``put_many``, the dataport's
``BatchingTsdbWriter``, a retention pass — it reaches each layer as one
of the three primitives (``put_batch``, ``delete_before``,
``delete_series_before``), so:

- the WAL file is byte-for-byte ``SEGMENT_MAGIC`` + the replication
  log's frames (one encoding of every block, in commit order);
- WAL replay ≡ log replay ≡ the live inner store ≡ a bare ``TSDB`` fed
  the same operations, as binary ``dumps``;
- a ``CachingStore`` on top answers ``run_many`` exactly as the uncached
  inner store does after every operation, whichever layer the write
  entered at (generations bump where the data lands).
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataport import BatchingTsdbWriter
from repro.replication import ReplicatedStore
from repro.serve import CachingStore
from repro.tsdb import (
    ColdShardPager,
    DataPoint,
    Downsample,
    DurableStore,
    PointBatch,
    Query,
    RetentionPolicy,
    SeriesKey,
    ShardedTSDB,
    TSDB,
    dumps,
    load,
    wire,
)
from repro.tsdb import segments
from repro.tsdb.segments import SEGMENT_MAGIC

_METRICS = ("air.co2", "air.no2")
_NODES = ("n1", "n2", "n3")
_CITIES = ("a", "b")

_ts = st.integers(min_value=0, max_value=20_000)
_val = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_series = st.tuples(
    st.sampled_from(_METRICS), st.sampled_from(_NODES), st.sampled_from(_CITIES)
)
_row = st.tuples(_series, _ts, _val)
_rows = st.lists(_row, max_size=6)
_column = st.lists(st.tuples(_ts, _val), max_size=6)

_op = st.one_of(
    st.tuples(st.just("put"), _row),
    st.tuples(st.just("put_point"), _row),
    st.tuples(st.just("put_batch"), _rows),
    st.tuples(st.just("put_series"), _series, _column),
    st.tuples(st.just("put_many"), _rows),
    st.tuples(st.just("writer_flush"), _rows),
    st.tuples(st.just("delete_before"), _ts),
    st.tuples(st.just("delete_series_before"), _series, _ts),
    st.tuples(st.just("retention"), st.sampled_from(_CITIES), _ts),
)
#: (enters at the cache layer?, op) — a write below the cache must
#: invalidate it just the same.
_ops = st.lists(st.tuples(st.booleans(), _op), max_size=25)

_QUERIES = [
    Query("air.co2", 0, 20_000, tags={"node": "*"}, group_by=["node"]),
    Query("air.no2", 0, 20_000, aggregator="sum", downsample="1h-avg"),
    Query("air.co2.rollup", 0, 20_000, tags={"city": "a|b"}),
]


def _tags(series) -> dict:
    return {"node": series[1], "city": series[2]}


def _point(row) -> DataPoint:
    series, ts, val = row
    return DataPoint(SeriesKey.make(series[0], _tags(series)), ts, val)


def _apply(db, op) -> None:
    kind = op[0]
    if kind == "put":
        series, ts, val = op[1]
        db.put(series[0], ts, val, _tags(series))
    elif kind == "put_point":
        db.put_point(_point(op[1]))
    elif kind == "put_batch":
        db.put_batch(PointBatch.from_points([_point(r) for r in op[1]]))
    elif kind == "put_series":
        series, column = op[1], op[2]
        db.put_series(
            series[0], [t for t, _ in column], [v for _, v in column], _tags(series)
        )
    elif kind == "put_many":
        db.put_many(_point(r) for r in op[1])
    elif kind == "writer_flush":
        writer = BatchingTsdbWriter(db)
        for series, ts, val in op[1]:
            writer.add(series[0], ts, val, _tags(series))
        writer.flush()
    elif kind == "delete_before":
        db.delete_before(op[1])
    elif kind == "delete_series_before":
        series = op[1]
        db.delete_series_before(SeriesKey.make(series[0], _tags(series)), op[2])
    else:
        RetentionPolicy(
            raw_max_age=3600, rollup=Downsample.parse("1h-avg")
        ).enforce_scoped(db, op[2] + 3600, {"city": op[1]})


@given(ops=_ops, n=st.sampled_from([1, 4]))
@settings(max_examples=60, deadline=None)
def test_every_write_entry_point_reaches_wal_log_and_store_alike(
    tmp_path_factory, ops, n
):
    inner = ShardedTSDB(n)
    replicated = ReplicatedStore(inner)
    durable = DurableStore(replicated, tmp_path_factory.mktemp("stack") / "wal.seg")
    cached = CachingStore(durable)
    bare = TSDB()
    for at_cache, op in ops:
        _apply(cached if at_cache else durable, op)
        _apply(bare, op)
        assert wire.encode_response(cached.run_many(_QUERIES)) == (
            wire.encode_response(inner.run_many(_QUERIES))
        )
    durable.close()

    wal_bytes = durable.wal_path.read_bytes()
    frames = b"".join(frame for _, frame in replicated.log.pending_after(0))
    assert wal_bytes == SEGMENT_MAGIC + frames
    state = dumps(inner, format="binary")
    assert dumps(bare, format="binary") == state
    assert dumps(load(durable.wal_path), format="binary") == state
    assert dumps(load(io.BytesIO(SEGMENT_MAGIC + frames)), format="binary") == state


def test_a_batch_too_large_for_one_record_is_split_once_for_wal_and_log(
    tmp_path, monkeypatch
):
    """One framing function: the journal writes the blocks the log
    retains, also when a batch needs several — and none of them is
    larger than a record a follower accepts."""
    monkeypatch.setattr(segments, "MAX_RECORD_BYTES", 512)
    inner = ShardedTSDB(4)
    replicated = ReplicatedStore(inner)
    durable = DurableStore(replicated, tmp_path / "wal.seg")
    rows = [
        ((_METRICS[i % 2], _NODES[i % 3], "a"), 1000 - 7 * (i % 13), float(i))
        for i in range(100)
    ]
    batch = PointBatch.from_points([_point(r) for r in rows])
    assert durable.put_batch(batch) == 100
    assert "_frames" not in vars(batch)  # carried for the call, not kept

    # A key dictionary that alone overflows a record cannot be framed:
    # refused before anything is journaled, committed or logged.
    wide = PointBatch.from_points(
        [
            DataPoint(SeriesKey.make("m", {"node": f"{i:03d}" + "x" * 60}), 1, 1.0)
            for i in range(8)
        ]
    )
    committed = dumps(inner, format="binary")
    logged = len(replicated.log)
    for layer in (durable, replicated):
        with pytest.raises(ValueError, match="key dictionary"):
            layer.put_batch(wide)
    assert "_frames" not in vars(wide)
    assert dumps(inner, format="binary") == committed
    assert len(replicated.log) == logged
    durable.close()

    records = replicated.log.pending_after(0)
    assert len(records) > 1
    assert all(8 + len(frame) <= 512 for _, frame in records)
    assert replicated.log.appended_points == 100
    frames = b"".join(frame for _, frame in records)
    assert durable.wal_path.read_bytes() == SEGMENT_MAGIC + frames
    bare = TSDB()
    bare.put_batch(batch)
    state = dumps(bare, format="binary")
    assert dumps(inner, format="binary") == state
    assert dumps(load(durable.wal_path), format="binary") == state


@pytest.mark.parametrize(
    "wrapper", [DurableStore, ReplicatedStore, CachingStore, ColdShardPager]
)
def test_wrappers_do_not_redeclare_the_derived_writes(wrapper):
    """The derived writes exist once, in ``StoreApi``; a wrapper that
    declared its own would fork the write path again."""
    for name in ("put", "put_point", "put_series", "put_many"):
        assert name not in vars(wrapper)
