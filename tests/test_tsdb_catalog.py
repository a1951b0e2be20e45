"""Series-catalog tests: postings correctness, guard-rails, rebuild.

The catalog's one load-bearing promise is **equivalence**: for any
store state and any tag filter, ``_match`` answered from the inverted
postings index is byte-identical to the brute-force scan it replaced —
``sorted(k for k in all series of the metric if k.matches(tags))``.
The hypothesis property here drives the store through random interleavings of ingest, retention, targeted deletes,
and full persistence round-trips, checking equivalence after every
step — twice per filter, so the second answer comes from the filter's
kept resolution (:meth:`~repro.tsdb.catalog.SeriesCatalog.resolve`),
whose group partitions and column stores are checked against a
brute-force partition and the store's own look-ups.  A race test pins
the one rule the memo adds: a store that does not exist yet is never
kept.  Around it: unit tests for the index bookkeeping (idempotence,
empty-bucket pruning), the cardinality guard-rails (atomic rejection,
re-admission after retention), the
retention/unindex contract, deterministic ordering, and catalog
rebuild on every restore path.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import Query, SeriesKey, TSDB, dumps, load
from repro.tsdb.catalog import CardinalityLimitError, SeriesCatalog
from repro.tsdb.retention import RetentionPolicy


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
_roundtrip = st.just(("roundtrip",))

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


_GROUP_BYS = ((), ("node",), ("city",), ("node", "city"), ("absent",))


def _brute_groups(keys, group_by):
    """The group-by partition by hand: a label per distinct combination
    of the group tags (a missing tag reads ""), labels sorted, each
    group's keys in ``keys``' (canonical) order."""
    def label(key):
        tags = dict(key.tags)
        return tuple((g, tags.get(g, "")) for g in sorted(group_by))

    return [
        (lab, tuple(k for k in keys if label(k) == lab))
        for lab in sorted({label(k) for k in keys})
    ]


def _check_equivalence(store):
    for metric in _METRICS + ("no.such.metric",):
        for tags in _FILTERS:
            want = _brute_match(store, metric, tags)
            for _ in range(2):  # the second answer is a kept resolution's
                assert store._match(metric, tags) == want, (
                    f"divergence on {metric!r} {tags!r}"
                )
                resolved = store._resolve((metric, tuple(sorted(tags.items()))))
                assert list(resolved.keys) == want
                assert len(resolved.stores) == len(want)
                for key, series in zip(want, resolved.stores):
                    assert series is store._series(key) is not None
                for group_by in _GROUP_BYS:
                    grouping = resolved.groups(group_by)
                    what = f"groups of {metric!r} {tags!r} by {group_by!r}"
                    assert grouping.groups == _brute_groups(want, group_by), what
                    # the same keys as positions into the resolution's
                    for (_, keys), lo, hi in zip(grouping.groups, grouping.bounds,
                                                 grouping.bounds[1:]):
                        assert tuple(want[p] for p in grouping.order[lo:hi]) \
                            == keys, what
                    assert grouping.in_key_order == (
                        grouping.order.tolist() == list(range(len(want)))), what


@given(
    ops=st.lists(
        st.one_of(_puts, _del_before, _del_series, _roundtrip),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_match_equals_brute_force_scan(ops):
    store = TSDB()
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
            store = load(io.BytesIO(dumps(store)))
        _check_equivalence(store)
    # Pin the sorted contract directly.
    for metric in _METRICS:
        for tags in _FILTERS:
            got = store._match(metric, tags)
            assert got == sorted(got, key=str)


@pytest.mark.parametrize("shards", [0, 1, 4])  # a retired layout's ids
def test_a_match_between_indexing_and_storing_keeps_no_absent_store(
    shards, monkeypatch
):
    """``TSDB._store_for`` indexes a new key before it stores it, so a
    reader in between matches a key whose store does not exist yet.
    The metric generation has already moved for that key, so a
    resolution that kept the absent store would hide the series from
    every later reader; once stored, it must be seen."""
    store = TSDB()
    store.put("m.a", 0, 1.0, {"node": "n0"})
    query = Query("m.a", 0, 10, aggregator="sum", group_by=("node",))
    real_add = SeriesCatalog.add
    between = []

    def add(catalog, key):
        real_add(catalog, key)
        if key.tag("node") == "n1":  # indexed, not stored yet
            between.append((store._resolve(("m.a", ())), store.run(query)))

    monkeypatch.setattr(SeriesCatalog, "add", add)
    store.put("m.a", 5, 2.0, {"node": "n1"})
    monkeypatch.undo()
    ((resolved, result),) = between
    assert [k.tag("node") for k in resolved.keys] == ["n0", "n1"]
    assert resolved.stores[1] is None
    assert [len(s) for s in result.series] == [1, 0]

    for _ in range(2):  # and the next reader again, from the kept entry
        result = store.run(query)
        assert [(s.group_tags["node"], s.values.tolist()) for s in result] == [
            ("n0", [1.0]), ("n1", [2.0])]
        resolved = store._resolve(("m.a", ()))
        assert all(series is not None for series in resolved.stores)


# ---------------------------------------------------------------------------
# Cardinality guard-rails
# ---------------------------------------------------------------------------


class TestCardinalityGuard:
    @pytest.mark.parametrize("shards", [0, 1, 3, 4])  # a retired layout's ids
    def test_limit_is_store_wide(self, shards):
        store = TSDB(max_tag_values=3)
        for i in range(3):
            store.put("m.a", 1, 1.0, {"node": f"n{i}"})
        with pytest.raises(CardinalityLimitError) as exc:
            store.put("m.a", 1, 1.0, {"node": "n3"})
        assert "3 distinct-value limit" in str(exc.value)
        # Existing values stay writable; other metrics are unaffected.
        store.put("m.a", 2, 2.0, {"node": "n0"})
        store.put("m.b", 1, 1.0, {"node": "n3"})
        assert store.tag_values("m.a", "node") == ["n0", "n1", "n2"]

    @pytest.mark.parametrize("shards", [0, 4])  # a retired layout's ids
    def test_rejection_is_atomic(self, shards):
        store = TSDB(max_tag_values=1)
        store.put("m.a", 1, 1.0, {"node": "n0"})
        before = store.point_count
        with pytest.raises(CardinalityLimitError):
            store.put("m.a", 5, 9.0, {"node": "n1"})
        assert store.point_count == before
        assert store.series_count == 1
        assert store.tag_values("m.a", "node") == ["n0"]
        assert _key("m.a", node="n1") not in store.catalog

    def test_batch_keeps_rows_admitted_before_the_trip(self):
        from repro.tsdb import BatchBuilder

        store = TSDB(max_tag_values=2)
        builder = BatchBuilder()
        for i in range(4):
            builder.add("m.a", i, float(i), {"node": f"n{i}"})
        with pytest.raises(CardinalityLimitError):
            store.put_batch(builder.build())
        # Same at-least-once boundary as WAL replay: earlier series stay.
        assert store.tag_values("m.a", "node") == ["n0", "n1"]
        assert store.write_count == 2

    @pytest.mark.parametrize("shards", [0, 4])  # a retired layout's ids
    def test_retention_frees_values_for_readmission(self, shards):
        store = TSDB(max_tag_values=2)
        store.put("m.a", 1, 1.0, {"node": "old"})
        store.put("m.a", 100, 1.0, {"node": "live"})
        with pytest.raises(CardinalityLimitError):
            store.put("m.a", 100, 1.0, {"node": "new"})
        store.delete_before(50)  # empties and unindexes node=old
        store.put("m.a", 100, 1.0, {"node": "new"})
        assert store.tag_values("m.a", "node") == ["live", "new"]

    def test_unlimited_by_default(self):
        store = TSDB()
        for i in range(100):
            store.put("m.a", 1, 1.0, {"node": f"n{i}"})
        assert store.cardinality("m.a") == 100


# ---------------------------------------------------------------------------
# Retention unindexes dead series (satellite: delete paths -> _unindex)
# ---------------------------------------------------------------------------


class TestRetentionUnindex:
    @pytest.mark.parametrize("shards", [0, 4])  # a retired layout's ids
    def test_delete_before_removes_dead_series_from_catalog(self, shards):
        store = TSDB()
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
        RetentionPolicy(max_age=100).enforce(store, now=10_050)
        assert store.tag_values("m.a", "node") == ["young"]

    def test_per_shard_retention_prunes_catalog(self):
        store = TSDB()
        for i in range(9):
            store.put("m.a", 0, 1.0, {"node": f"old{i}"})
            store.put("m.a", 10_000, 1.0, {"node": f"young{i}"})
        RetentionPolicy(max_age=100).enforce(store, now=10_050)
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
            k: store.tag_values(m, k) for k in store.catalog.tag_keys(m)
        }
        for m in store.metrics()
    }


class TestCatalogRebuild:
    @pytest.mark.parametrize("fmt", ["binary"])  # the one durable format
    @pytest.mark.parametrize("shards", [0, 4])  # a retired layout's ids
    def test_dumps_load_rebuilds_catalog(self, fmt, shards):
        store = _seed(TSDB())
        restored = load(io.BytesIO(dumps(store)), into=TSDB())
        assert _catalog_view(restored) == _catalog_view(store)
        assert "m.doomed" not in restored.metrics()
        for metric in store.metrics():
            assert restored._match(metric, {"node": "*"}) == store._match(
                metric, {"node": "*"}
            )


# ---------------------------------------------------------------------------
# Deterministic ordering (satellite: alternation + pinned sort)
# ---------------------------------------------------------------------------


class TestOrdering:
    def test_single_and_sharded_match_identically(self):
        single, other = _seed(TSDB()), _seed(TSDB())
        for tags in ({}, {"node": "*"}, {"node": "n0|n1"}, {"city": "*"}):
            assert single._match("air.co2.ppm", tags) == other._match(
                "air.co2.ppm", tags
            )

    def test_alternation_narrows_through_the_index(self):
        store = TSDB()
        for i in range(6):
            store.put("m.a", 1, 1.0, {"node": f"n{i}"})
        got = store._match("m.a", {"node": "n1|n4"})
        assert got == [_key("m.a", node="n1"), _key("m.a", node="n4")]
