"""Series-catalog tests: postings correctness, guard-rails, rebuild.

The catalog's one load-bearing promise is **equivalence**: for any
store state and any tag filter, ``_match`` answered from the inverted
postings index is byte-identical to the brute-force scan it replaced —
``sorted(k for k in all series of the metric if k.matches(tags))``.
The hypothesis property here drives both single and sharded stores
through random interleavings of ingest, retention, targeted deletes,
and full persistence round-trips, checking equivalence after every
step.  Around it: unit tests for the index bookkeeping (idempotence,
empty-bucket pruning), the cardinality guard-rails (atomic rejection,
single-vs-sharded consistency, re-admission after retention), the
retention/unindex contract, deterministic ordering, and catalog
rebuild on every restore path.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import (
    CardinalityLimitError,
    RetentionPolicy,
    PerShardRetention,
    SeriesCatalog,
    SeriesKey,
    ShardedTSDB,
    TSDB,
    dumps,
    load,
    snapshot,
)


def _key(metric, **tags):
    return SeriesKey.make(metric, tags)


def _brute_match(store, metric, tags):
    """The pre-catalog reference: full scan + ``key.matches``."""
    return sorted(
        (k for k in store.series_for_metric(metric) if k.matches(tags)),
        key=str,
    )


# ---------------------------------------------------------------------------
# SeriesCatalog unit behaviour
# ---------------------------------------------------------------------------


class TestSeriesCatalog:
    def test_add_discard_round_trip_leaves_nothing(self):
        cat = SeriesCatalog()
        k = _key("m.a", node="n1", city="trondheim")
        cat.add(k)
        assert k in cat and len(cat) == 1
        assert cat.metrics() == ["m.a"]
        assert cat.tag_keys("m.a") == ["city", "node"]
        assert cat.tag_values("m.a", "node") == ["n1"]
        cat.discard(k)
        assert k not in cat and len(cat) == 0
        assert cat.metrics() == []
        assert cat.tag_keys("m.a") == []
        assert cat.tag_values("m.a", "node") == []
        assert cat.cardinality("m.a") == 0

    def test_add_is_idempotent(self):
        cat = SeriesCatalog()
        k = _key("m.a", node="n1")
        gen_after_first = (cat.add(k), cat.generation)[1]
        cat.add(k)
        assert len(cat) == 1
        assert cat.generation == gen_after_first  # no-op does not bump

    def test_discard_missing_is_noop(self):
        cat = SeriesCatalog()
        gen = cat.generation
        cat.discard(_key("m.a", node="n1"))
        assert cat.generation == gen

    def test_partial_value_overlap_prunes_only_empty_buckets(self):
        cat = SeriesCatalog()
        a = _key("m.a", node="n1", site="s1")
        b = _key("m.a", node="n1", site="s2")
        cat.add(a)
        cat.add(b)
        cat.discard(a)
        assert cat.tag_values("m.a", "node") == ["n1"]
        assert cat.tag_values("m.a", "site") == ["s2"]

    def test_tag_values_validates_key_name(self):
        cat = SeriesCatalog()
        with pytest.raises(ValueError):
            cat.tag_values("m.a", "bad|key")

    def test_match_wildcard_alternation_exact(self):
        cat = SeriesCatalog()
        keys = [
            _key("m.a", node=f"n{i}", city=c)
            for i in range(4)
            for c in ("x", "y")
        ]
        for k in keys:
            cat.add(k)
        assert cat.match("m.a", {"node": "*"}) == sorted(keys, key=str)
        assert cat.match("m.a", {"node": "n1|n3", "city": "x"}) == sorted(
            (k for k in keys if k.matches({"node": "n1|n3", "city": "x"})),
            key=str,
        )
        assert cat.match("m.a", {"node": "n9"}) == []
        assert cat.match("m.a", {"absent": "*"}) == []
        assert cat.match("no.such.metric", {}) == []


# ---------------------------------------------------------------------------
# Equivalence property: postings == brute force, through everything
# ---------------------------------------------------------------------------

_METRICS = ("air.co2.ppm", "air.pm10.ugm3")
_NODES = tuple(f"n{i}" for i in range(5))
_CITIES = ("trondheim", "vejle")

_puts = st.tuples(
    st.sampled_from(_METRICS),
    st.sampled_from(_NODES),
    st.sampled_from(_CITIES),
    st.integers(min_value=0, max_value=9),
).map(lambda t: ("put",) + t)
_del_before = st.integers(min_value=0, max_value=10).map(
    lambda c: ("delete_before", c)
)
_del_series = st.tuples(
    st.sampled_from(_METRICS),
    st.sampled_from(_NODES),
    st.sampled_from(_CITIES),
    st.integers(min_value=0, max_value=10),
).map(lambda t: ("delete_series",) + t)
_roundtrip = st.sampled_from(["text", "binary"]).map(
    lambda f: ("roundtrip", f)
)

_FILTERS = (
    {},
    {"node": "*"},
    {"node": "n1"},
    {"node": "n0|n3"},
    {"node": "n1|n2|n4", "city": "trondheim"},
    {"city": "*", "node": "n2"},
    {"city": "trondheim|vejle"},
    {"node": "n9"},
    {"absent": "*"},
)


def _fresh(shards: int):
    return TSDB() if shards == 0 else ShardedTSDB(shards)


def _check_equivalence(store):
    for metric in _METRICS + ("no.such.metric",):
        for tags in _FILTERS:
            assert store._match(metric, tags) == _brute_match(
                store, metric, tags
            ), f"divergence on {metric!r} {tags!r}"


@given(
    shards=st.sampled_from([0, 1, 2, 4, 7]),
    ops=st.lists(
        st.one_of(_puts, _del_before, _del_series, _roundtrip),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_match_equals_brute_force_scan(shards, ops):
    store = _fresh(shards)
    for op in ops:
        if op[0] == "put":
            _, metric, node, city, ts = op
            store.put(metric, ts, 1.0, {"node": node, "city": city})
        elif op[0] == "delete_before":
            store.delete_before(op[1])
        elif op[0] == "delete_series":
            _, metric, node, city, cutoff = op
            store.delete_series_before(
                _key(metric, node=node, city=city), cutoff
            )
        else:  # roundtrip: the restored store must rebuild the catalog
            data = dumps(store, format=op[1])
            buf = io.BytesIO(data) if op[1] == "binary" else io.StringIO(data)
            store = load(buf, into=_fresh(shards))
        _check_equivalence(store)
    # The store kinds agree with each other because each agrees with
    # the same brute-force reference; pin the sorted contract directly.
    for metric in _METRICS:
        for tags in _FILTERS:
            got = store._match(metric, tags)
            assert got == sorted(got, key=str)


# ---------------------------------------------------------------------------
# Cardinality guard-rails
# ---------------------------------------------------------------------------


class TestCardinalityGuard:
    @pytest.mark.parametrize("shards", [0, 1, 3, 4])
    def test_limit_is_store_wide(self, shards):
        store = (
            TSDB(max_tag_values=3)
            if shards == 0
            else ShardedTSDB(shards, max_tag_values=3)
        )
        for i in range(3):
            store.put("m.a", 1, 1.0, {"node": f"n{i}"})
        with pytest.raises(CardinalityLimitError) as exc:
            store.put("m.a", 1, 1.0, {"node": "n3"})
        assert "3 distinct-value limit" in str(exc.value)
        # Existing values stay writable; other metrics are unaffected.
        store.put("m.a", 2, 2.0, {"node": "n0"})
        store.put("m.b", 1, 1.0, {"node": "n3"})
        assert store.suggest_tag_values("m.a", "node") == ["n0", "n1", "n2"]

    @pytest.mark.parametrize("shards", [0, 4])
    def test_rejection_is_atomic(self, shards):
        store = (
            TSDB(max_tag_values=1)
            if shards == 0
            else ShardedTSDB(shards, max_tag_values=1)
        )
        store.put("m.a", 1, 1.0, {"node": "n0"})
        before = store.exact_point_count()
        with pytest.raises(CardinalityLimitError):
            store.put("m.a", 5, 9.0, {"node": "n1"})
        assert store.exact_point_count() == before
        assert store.series_count == 1
        assert store.suggest_tag_values("m.a", "node") == ["n0"]
        assert _key("m.a", node="n1") not in store.catalog

    def test_batch_keeps_rows_admitted_before_the_trip(self):
        store = TSDB(max_tag_values=2)
        from repro.tsdb import BatchBuilder

        builder = BatchBuilder()
        for i in range(4):
            builder.add("m.a", i, float(i), {"node": f"n{i}"})
        with pytest.raises(CardinalityLimitError):
            store.put_batch(builder.build())
        # Same at-least-once boundary as WAL replay: earlier series stay.
        assert store.suggest_tag_values("m.a", "node") == ["n0", "n1"]

    @pytest.mark.parametrize("shards", [0, 4])
    def test_retention_frees_values_for_readmission(self, shards):
        store = (
            TSDB(max_tag_values=2)
            if shards == 0
            else ShardedTSDB(shards, max_tag_values=2)
        )
        store.put("m.a", 1, 1.0, {"node": "old"})
        store.put("m.a", 100, 1.0, {"node": "live"})
        with pytest.raises(CardinalityLimitError):
            store.put("m.a", 100, 1.0, {"node": "new"})
        store.delete_before(50)  # empties and unindexes node=old
        store.put("m.a", 100, 1.0, {"node": "new"})
        assert store.suggest_tag_values("m.a", "node") == ["live", "new"]

    def test_unlimited_by_default(self):
        store = TSDB()
        for i in range(100):
            store.put("m.a", 1, 1.0, {"node": f"n{i}"})
        assert store.cardinality("m.a") == 100


# ---------------------------------------------------------------------------
# Retention unindexes dead series (satellite: delete paths -> _unindex)
# ---------------------------------------------------------------------------


class TestRetentionUnindex:
    @pytest.mark.parametrize("shards", [0, 4])
    def test_delete_before_removes_dead_series_from_catalog(self, shards):
        store = _fresh(shards)
        store.put("m.dead", 1, 1.0, {"node": "gone"})
        store.put("m.live", 100, 1.0, {"node": "stays"})
        store.delete_before(50)
        assert store.metrics() == ["m.live"]
        assert store.tag_values("m.dead", "node") == []
        assert store.cardinality("m.dead") == 0
        assert store.tag_values("m.live", "node") == ["stays"]

    def test_delete_series_before_unindexes_when_emptied(self):
        store = TSDB()
        k = store.put("m.a", 1, 1.0, {"node": "n0"})
        store.put("m.a", 1, 1.0, {"node": "n1"})
        store.delete_series_before(k, 10)
        assert store.tag_values("m.a", "node") == ["n1"]
        assert store._match("m.a", {"node": "*"}) == [
            _key("m.a", node="n1")
        ]

    def test_retention_policy_prunes_catalog(self):
        store = TSDB()
        store.put("m.a", 0, 1.0, {"node": "old"})
        store.put("m.a", 10_000, 1.0, {"node": "young"})
        RetentionPolicy(raw_max_age=100).enforce(store, now=10_050)
        assert store.tag_values("m.a", "node") == ["young"]

    def test_per_shard_retention_prunes_catalog(self):
        store = ShardedTSDB(3)
        for i in range(9):
            store.put("m.a", 0, 1.0, {"node": f"old{i}"})
            store.put("m.a", 10_000, 1.0, {"node": f"young{i}"})
        PerShardRetention(
            [RetentionPolicy(raw_max_age=100)] * 3
        ).enforce(store, now=10_050)
        assert store.tag_values("m.a", "node") == sorted(
            f"young{i}" for i in range(9)
        )
        assert store.cardinality("m.a", {"node": "*"}) == 9


# ---------------------------------------------------------------------------
# Restore paths rebuild the catalog
# ---------------------------------------------------------------------------


def _seed(store):
    for i in range(4):
        store.put("air.co2.ppm", i * 10, 400.0 + i,
                  {"node": f"n{i % 2}", "city": "trondheim"})
    store.put("weather.temperature.c", 5, 3.0, {"city": "vejle"})
    store.delete_series_before(
        store.put("m.doomed", 1, 1.0, {"node": "gone"}), 10
    )
    return store


def _catalog_view(store):
    return {
        m: {
            k: store.tag_values(m, k) for k in store.tag_keys(m)
        }
        for m in store.metrics()
    }


class TestCatalogRebuild:
    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("shards", [0, 4])
    def test_dumps_load_rebuilds_catalog(self, fmt, shards):
        store = _seed(_fresh(shards))
        data = dumps(store, format=fmt)
        buf = io.BytesIO(data) if fmt == "binary" else io.StringIO(data)
        restored = load(buf, into=_fresh(shards))
        assert _catalog_view(restored) == _catalog_view(store)
        assert "m.doomed" not in restored.metrics()
        for metric in store.metrics():
            assert restored._match(metric, {"node": "*"}) == store._match(
                metric, {"node": "*"}
            )

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_restore_from_dir_rebuilds_catalog(self, fmt, tmp_path):
        store = _seed(ShardedTSDB(3))
        if fmt == "binary":
            store.snapshot_to_dir(tmp_path)
        else:  # a legacy text directory: restore still adopts it
            for i, shard in enumerate(store.shards):
                snapshot(shard, tmp_path / f"shard-{i}-of-3.log", format="text")
        restored = ShardedTSDB.restore_from_dir(tmp_path)
        assert _catalog_view(restored) == _catalog_view(store)
        assert restored.cardinality("air.co2.ppm") == store.cardinality(
            "air.co2.ppm"
        )


# ---------------------------------------------------------------------------
# Deterministic ordering (satellite: alternation + pinned sort)
# ---------------------------------------------------------------------------


class TestOrdering:
    def test_single_and_sharded_match_identically(self):
        single, sharded = _seed(TSDB()), _seed(ShardedTSDB(7))
        for tags in ({}, {"node": "*"}, {"node": "n0|n1"}, {"city": "*"}):
            assert single._match("air.co2.ppm", tags) == sharded._match(
                "air.co2.ppm", tags
            )

    def test_alternation_narrows_through_the_index(self):
        store = TSDB()
        for i in range(6):
            store.put("m.a", 1, 1.0, {"node": f"n{i}"})
        got = store._match("m.a", {"node": "n1|n4"})
        assert got == [_key("m.a", node="n1"), _key("m.a", node="n4")]
