"""The store stack is one read surface (the twin of test_store_stack.py).

A store supplies ``catalog``, the keyed ``_series`` lookup and three
whole-store counts; every other read the protocol names is derived once,
in ``StoreApi``.  So, whatever mix of writes and retention a store has
seen:

- every read returns identical values *and order* on a bare ``TSDB``,
  on ``ShardedTSDB(n)`` for n ∈ {1, 2, 4, 7}, through
  ``CachingStore(DurableStore(ReplicatedStore(store)))`` and on a fully
  paged ``ColdShardPager``;
- ``metric_generation`` / ``catalog_generation`` never stand still
  across a change of the series set and never repeat, also when a
  metric is emptied by retention and created again;
- no engine or wrapper lists a derived read of its own.
"""

import random

import pytest

from repro.replication import ReplicatedStore
from repro.serve import CachingStore
from repro.tsdb import (
    ColdShardPager,
    DataPoint,
    DurableStore,
    PointBatch,
    Query,
    SeriesKey,
    ShardedTSDB,
    TSDB,
    wire,
)

_METRICS = ("air.co2", "air.no2", "weather.temp")
_NODES = tuple(f"n{i}" for i in range(8))
_CITIES = ("a", "b")
_T_MAX = 20_000
_SHARD_COUNTS = (1, 2, 4, 7)

_FILTERS = [
    {},
    {"node": "*"},
    {"node": "n1|n2|n6"},
    {"city": "a"},
    {"node": "n3", "city": "b"},
]
_QUERIES = [
    Query("air.co2", 0, _T_MAX, tags={"node": "*"}, group_by=["node"]),
    Query("air.no2", 0, _T_MAX, aggregator="sum", downsample="1h-avg"),
    Query("weather.temp", 5_000, 15_000, tags={"city": "a|b"}),
]

#: What StoreApi derives; a store or wrapper that lists one of these
#: itself has forked the read path again.
_DERIVED_READS = (
    "series_count", "metrics", "series_for_metric", "suggest_metrics",
    "suggest_tag_values", "tag_keys", "tag_values", "cardinality",
    "catalog_generation", "metric_generation", "_match", "last",
    "series_generation", "series_reshape_generation", "series_latest",
    "series_slice", "iter_series", "iter_points", "run", "run_many", "select",
)


def _key(metric: str, node: str, city: str = "a") -> SeriesKey:
    return SeriesKey.make(metric, {"node": node, "city": city})


_KEYS = [_key(m, n, c) for m in _METRICS for n in _NODES for c in _CITIES]


def _random_ops(seed: int, count: int = 24) -> list[tuple]:
    """Writes and retention, with one pass in the middle that empties
    every metric so the second half re-creates them."""
    rng = random.Random(seed)

    def row() -> DataPoint:
        return DataPoint(rng.choice(_KEYS), rng.randrange(_T_MAX), rng.uniform(-50, 50))

    def op() -> tuple:
        kind = rng.choices(
            ("put_batch", "put", "delete_before", "delete_series_before"),
            weights=(6, 3, 1, 2),
        )[0]
        if kind == "put_batch":
            return kind, [row() for _ in range(rng.randrange(1, 16))]
        if kind == "put":
            return kind, row()
        if kind == "delete_before":
            return kind, rng.randrange(_T_MAX)
        return kind, rng.choice(_KEYS), rng.randrange(_T_MAX)

    half = count // 2
    return (
        [op() for _ in range(half)]
        + [("delete_before", 10**9)]
        + [op() for _ in range(count - half)]
    )


def _apply(db, op: tuple) -> None:
    kind = op[0]
    if kind == "put_batch":
        db.put_batch(PointBatch.from_points(op[1]))
    elif kind == "put":
        p = op[1]
        db.put(p.key.metric, p.timestamp, p.value, dict(p.key.tags))
    elif kind == "delete_before":
        db.delete_before(op[1])
    else:
        db.delete_series_before(op[1], op[2])


def _columns(sl) -> tuple[list, list]:
    return sl.timestamps.tolist(), sl.values.tolist()


def _layout_reads(db) -> dict:
    """Every read whose answer is a function of the data alone — dicts
    and generators flattened to lists, so order is compared too."""
    reads: dict = {
        "series_count": db.series_count,
        "point_count": db.point_count,
        "exact_point_count": db.exact_point_count(),
        "metrics": db.metrics(),
        "suggest_metrics": db.suggest_metrics("air."),
        "run_many": wire.encode_response(db.run_many(_QUERIES)),
        "run": wire.encode_response([db.run(_QUERIES[0])]),
        "select": wire.encode_response(
            [db.select("air.co2").where(node="*").range(0, _T_MAX).run()]
        ),
        "iter_series": [(k, _columns(sl)) for k, sl in db.iter_series()],
        "iter_series[range]": [
            (k, _columns(sl)) for k, sl in db.iter_series(5_000, 15_000)
        ],
        "iter_points": list(db.iter_points()),
    }
    for m in _METRICS + ("no.such.metric",):
        reads["series_for_metric", m] = db.series_for_metric(m)
        reads["tag_keys", m] = db.tag_keys(m)
        reads["tag_values", m] = db.tag_values(m, "node")
        reads["suggest_tag_values", m] = db.suggest_tag_values(m, "city")
        reads["cardinality", m] = db.cardinality(m)
        for i, tags in enumerate(_FILTERS):
            reads["cardinality", m, i] = db.cardinality(m, tags)
            reads["_match", m, i] = db._match(m, tags)
            reads["last", m, i] = list(db.last(m, tags).items())
    for key in _KEYS + [SeriesKey.make("no.such.metric", {"node": "n0"})]:
        reads["series_latest", key] = db.series_latest(key)
        reads["series_slice", key] = _columns(db.series_slice(key))
        reads["series_slice[range]", key] = _columns(
            db.series_slice(key, 5_000, 15_000)
        )
    return reads


def _history_reads(db) -> dict:
    """The counters: functions of the data *and* of how it got there,
    so equal between stores that saw the same operations."""
    reads: dict = {
        "write_count": db.write_count,
        "catalog_generation": db.catalog_generation(),
    }
    for m in _METRICS + ("no.such.metric",):
        reads["metric_generation", m] = db.metric_generation(m)
    for key in _KEYS:
        reads["series_generation", key] = db.series_generation(key)
        reads["series_reshape_generation", key] = db.series_reshape_generation(key)
    return reads


def _assert_same(got: dict, want: dict, who: str) -> None:
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], f"{who}: {name}"


def _stack(tmp_path, n: int = 4):
    durable = DurableStore(ReplicatedStore(ShardedTSDB(n)), tmp_path / "wal.seg")
    return CachingStore(durable), durable


@pytest.mark.parametrize("seed", range(6))
def test_every_read_is_identical_on_every_store_layout(tmp_path, seed):
    bare = TSDB()
    stacked, durable = _stack(tmp_path)
    others = {f"ShardedTSDB({n})": ShardedTSDB(n) for n in _SHARD_COUNTS}
    others["stack"] = stacked
    seen_gens = {name: {(0, (0, 0, 0))} for name in ("bare", *others)}
    recreated = False

    for op in _random_ops(seed):
        before = {m: bare.series_for_metric(m) for m in _METRICS}
        for db in (bare, *others.values()):
            _apply(db, op)
        want = {**_layout_reads(bare), **_history_reads(bare)}
        for name, db in others.items():
            _assert_same({**_layout_reads(db), **_history_reads(db)}, want, name)

        # Generations move with the series set and never come back to a
        # value they had — sharded ones are sums of per-shard counters.
        changed = [m for m in _METRICS if bare.series_for_metric(m) != before[m]]
        for name, db in (("bare", bare), *others.items()):
            gens = tuple(db.metric_generation(m) for m in _METRICS)
            state = (db.catalog_generation(), gens)
            assert (state in seen_gens[name]) == (not changed)
            seen_gens[name].add(state)
        recreated |= any(not before[m] and bare.series_for_metric(m) for m in _METRICS)
    durable.close()
    assert recreated  # the emptied metrics came back

    # Paged in shard by shard from a snapshot: the same store again.
    others["ShardedTSDB(4)"].snapshot_to_dir(tmp_path / "snap")
    pager = ColdShardPager(tmp_path / "snap")
    eager = ShardedTSDB.restore_from_dir(tmp_path / "snap")
    _assert_same(_layout_reads(pager), _layout_reads(bare), "pager")
    _assert_same(_history_reads(pager), _history_reads(eager), "pager")


@pytest.mark.parametrize("n", _SHARD_COUNTS)
def test_generations_strictly_increase_across_empty_and_recreate(tmp_path, n):
    stacked, durable = _stack(tmp_path, n)
    for db in (TSDB(), ShardedTSDB(n), stacked):
        seen = []

        def note() -> None:
            seen.append((db.metric_generation("air.co2"), db.catalog_generation()))

        for node in _NODES:
            db.put("air.co2", 100, 1.0, {"node": node})
            note()
        db.put("air.no2", 100, 1.0, {"node": "n0"})
        note()
        assert db.delete_before(200, exclude_suffix=".no2") == len(_NODES)
        assert db.metrics() == ["air.no2"]  # air.co2 is gone, its counter is not
        note()
        db.put("air.co2", 300, 2.0, {"node": "n0"})
        note()
        # One step per series created or removed, for any shard count.
        assert seen == [*((g, g) for g in range(1, 9)), (8, 9), (16, 17), (17, 18)]
        assert db.metric_generation("no.such.metric") == 0
    durable.close()


@pytest.mark.parametrize("n", _SHARD_COUNTS)
def test_last_iterates_in_canonical_order_for_any_layout(tmp_path, n):
    """``last`` is a dict the dashboards iterate (sensor tiles, AQI
    rows): its order is ``_match`` order, not shard-major."""
    bare, sharded = TSDB(), ShardedTSDB(n)
    stacked, durable = _stack(tmp_path, n)
    for db in (bare, sharded, stacked):
        for i, node in enumerate(reversed(_NODES)):
            db.put("air.co2", 100 + i, float(i), {"node": node})
    want = list(bare.last("air.co2").items())
    assert [k.tag("node") for k, _ in want] == list(_NODES)
    assert list(sharded.last("air.co2").items()) == want
    assert list(stacked.last("air.co2").items()) == want
    assert list(sharded.last("air.co2", {"node": "n5|n2|n6"})) == (
        bare._match("air.co2", {"node": "n2|n5|n6"})
    )
    durable.close()


@pytest.mark.parametrize(
    "cls", [TSDB, ShardedTSDB, ColdShardPager, DurableStore, ReplicatedStore]
)
def test_stores_do_not_redeclare_the_derived_reads(cls):
    """The derived reads exist once, in ``StoreApi``; a store that
    declared its own would fork the read path again."""
    for name in _DERIVED_READS + ("_run_unique_batch",):
        assert name not in vars(cls), name
