"""Round-trip tests for the versioned JSON wire codec.

Requests must decode back to the queries that encoded them (hypothesis
over the whole Query parameter space), responses must carry every
timestamp/value bit-exactly through JSON text (floats round-trip via
shortest-repr; NaN travels as null), and the strict version/field
checking must reject drift loudly.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import (
    Query,
    RemoteQueryError,
    TSDB,
    WIRE_VERSION,
    WireError,
    expr,
    handle_request,
    select,
)
from repro.tsdb import wire

names = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._\-]{0,8}", fullmatch=True)
tag_values = st.one_of(
    names,
    st.just("*"),
    st.builds(lambda a, b: f"{a}|{b}", names, names),
)


@st.composite
def queries(draw):
    start = draw(st.integers(0, 2**40))
    return Query(
        metric=draw(names),
        start=start,
        end=start + draw(st.integers(0, 2**32)),
        tags=draw(st.dictionaries(names, tag_values, max_size=3)),
        aggregator=draw(st.sampled_from(
            ("avg", "sum", "min", "max", "count", "dev", "p95", "median"))),
        downsample=draw(st.one_of(
            st.none(),
            st.builds(
                lambda n, u, a, f: f"{n}{u}-{a}{f}",
                st.integers(1, 90), st.sampled_from("smhd"),
                st.sampled_from(("avg", "max", "sum", "count")),
                st.sampled_from(("", "-nan", "-zero", "-previous", "-linear")),
            ),
        )),
        rate=draw(st.booleans()),
        group_by=draw(st.lists(names, max_size=2, unique=True).map(tuple)),
    )


def assert_same_query(a: Query, b: Query):
    assert a.metric == b.metric
    assert (a.start, a.end) == (b.start, b.end)
    assert dict(a.tags) == dict(b.tags)
    assert a.aggregator == b.aggregator
    assert a.parsed_downsample() == b.parsed_downsample()
    assert a.rate == b.rate
    assert tuple(sorted(a.group_by)) == tuple(sorted(b.group_by))


@settings(max_examples=100, deadline=None)
@given(qs=st.lists(queries(), max_size=4))
def test_request_round_trip(qs):
    text = wire.request_to_json(qs)
    decoded = wire.decode_request(text)
    assert len(decoded) == len(qs)
    for a, b in zip(qs, decoded):
        assert_same_query(a, b)


@settings(max_examples=50, deadline=None)
@given(q=queries(), formula_ops=st.sampled_from(("a - b", "a / b", "-a + 2")))
def test_expr_request_round_trip(q, formula_ops):
    names_used = {"a - b": ("a", "b"), "a / b": ("a", "b"), "-a + 2": ("a",)}
    e = expr(formula_ops, **{name: q for name in names_used[formula_ops]})
    (decoded,) = wire.decode_request(wire.request_to_json([e]))
    assert decoded.formula == e.formula
    for (na, qa), (nb, qb) in zip(e.operands, decoded.operands):
        assert na == nb
        assert_same_query(qa, qb)


@settings(max_examples=50, deadline=None)
@given(
    ts=st.lists(st.integers(0, 2**40), min_size=0, max_size=30, unique=True),
    data=st.data(),
)
def test_response_value_round_trip(ts, data):
    """Every float bit (including NaN and ±inf) survives JSON text."""
    values = data.draw(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=len(ts), max_size=len(ts),
        )
    )
    db = TSDB()
    if ts:
        db.put_series("m", np.array(sorted(ts), np.int64),
                      np.array(values, np.float64))
    res = db.run_many([Query("m", 0, 2**40)])
    text = wire.response_to_json(res)
    (decoded,) = wire.decode_response(text)
    (got,) = decoded.series
    want = res[0].single()
    assert np.array_equal(got.timestamps, want.timestamps)
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert decoded.scanned_points == res[0].scanned_points


@settings(max_examples=50, deadline=None)
@given(
    ts=st.lists(st.integers(0, 2**40), min_size=0, max_size=12, unique=True),
    split=st.integers(0, 12),
    tags=st.dictionaries(names, names, max_size=2),
    data=st.data(),
)
def test_reply_text_equals_dumps_of_the_dict_codec(ts, split, tags, data):
    """The bytes-level encoder is ``json.dumps`` of the dict codec, in
    pieces: a series from head + dps entries + tail at any split, an
    entry and a response from series texts, a line from either form."""
    values = data.draw(
        st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                 min_size=len(ts), max_size=len(ts)))
    db = TSDB()
    if ts:
        db.put_series("m", np.array(sorted(ts), np.int64),
                      np.array(values, np.float64), {"k": "v", **tags})
    q = Query("m", 0, 2**40, group_by=tuple(sorted(tags)))
    results = db.run_many(
        [q, wire.decode_query({"expr": "a + 1", "operands": {
            "a": wire.encode_query(q)}}), Query("absent", 0, 1)])

    def dumps(obj):
        return json.dumps(obj, allow_nan=False).encode()

    for s in results[0].series:
        whole = wire.series_json(s)
        assert whole == dumps(wire.encode_response(results)
                              ["results"][0]["series"][0])
        cut = min(split, len(s))
        pieces = [wire.dps_json(s.timestamps[:cut], s.values[:cut]),
                  wire.dps_json(s.timestamps[cut:], s.values[cut:])]
        assert whole == (wire.series_head_json(s)
                         + b", ".join(p for p in pieces if p)
                         + wire.SERIES_JSON_TAIL)
    for batch in (results, results[:1], []):
        response = wire.encode_response(batch)
        text = wire.encode_response_json(batch)
        assert text == dumps(response)
        for request_id in (7, "r-1", [1, {"a": None}], 0, ""):
            want = dumps({**response, "id": request_id}) + b"\n"
            assert wire.reply_line(text, dumps(request_id)) == want
            assert wire.reply_line(response, dumps(request_id)) == want
        assert wire.reply_line(text) == dumps(response) + b"\n"
    error = wire.encode_error(WireError("nope"))
    assert wire.reply_line(error, b"3") == dumps({**error, "id": 3}) + b"\n"


@pytest.fixture()
def db():
    db = TSDB()
    for i in range(12):
        db.put("air.co2.ppm", i * 300, 400.0 + i,
               {"node": "a", "city": "trondheim"})
        db.put("air.co2.ppm", i * 300, 410.0 + i,
               {"node": "b", "city": "trondheim"})
    return db


class TestHandleRequest:
    def test_end_to_end_equals_run_many(self, db):
        qs = [
            Query("air.co2.ppm", 0, 4000, downsample="10m-avg"),
            Query("air.co2.ppm", 0, 4000, group_by=("node",)),
        ]
        response = handle_request(db, wire.request_to_json(qs))
        direct = wire.encode_response(db.run_many(qs))
        assert response == direct
        # and the whole response survives a JSON round trip
        assert json.loads(json.dumps(response)) == response

    def test_expression_over_the_wire(self, db):
        request = {
            "version": WIRE_VERSION,
            "queries": [{
                "expr": "a - b",
                "operands": {
                    "a": {"metric": "air.co2.ppm", "start": 0, "end": 4000,
                          "tags": {"node": "a"}},
                    "b": {"metric": "air.co2.ppm", "start": 0, "end": 4000,
                          "tags": {"node": "b"}},
                },
            }],
        }
        response = handle_request(db, request)
        (entry,) = response["results"]
        assert entry["expr"] == "a - b"
        assert all(v == -10.0 for v in entry["series"][0]["dps"].values())

    def test_nan_encodes_as_null(self, db):
        request = wire.encode_request(
            [Query("air.co2.ppm", 0, 7200, downsample="10m-avg-nan")]
        )
        response = handle_request(db, request)
        dps = response["results"][0]["series"][0]["dps"]
        assert None in dps.values()  # the gap buckets
        (decoded,) = wire.decode_response(response)
        assert math.isnan(decoded.series[0].values[-1])


class TestStrictness:
    def test_unknown_version_rejected(self):
        with pytest.raises(WireError):
            wire.decode_request({"version": 99, "queries": []})

    def test_missing_version_rejected(self):
        with pytest.raises(WireError):
            wire.decode_request({"queries": []})

    def test_unknown_query_field_rejected(self):
        with pytest.raises(WireError):
            wire.decode_request({
                "version": WIRE_VERSION,
                "queries": [{"metric": "m", "start": 0, "end": 1,
                             "downsampleX": "5m-avg"}],
            })

    def test_missing_required_field_rejected(self):
        with pytest.raises(WireError):
            wire.decode_request(
                {"version": WIRE_VERSION, "queries": [{"metric": "m"}]}
            )

    def test_bad_json_rejected(self):
        with pytest.raises(WireError):
            wire.decode_request("{not json")

    def test_malformed_query_contents_rejected(self):
        for bad in (
            {"metric": "", "start": 0, "end": 1},
            {"metric": "m", "start": 5, "end": 1},
            {"metric": "m", "start": 0, "end": 1, "aggregator": "nope"},
            {"metric": "m", "start": 0, "end": 1, "downsample": "bogus"},
            {"metric": "m", "start": "abc", "end": 1},
            {"metric": "m", "start": 0, "end": [1]},
        ):
            with pytest.raises(WireError):
                wire.decode_request(
                    {"version": WIRE_VERSION, "queries": [bad]}
                )

    def test_malformed_dps_rejected(self):
        bad = {"version": WIRE_VERSION, "results": [
            {"series": [{"metric": "m", "tags": {}, "dps": {"abc": 1.0}}],
             "scannedPoints": 0},
        ]}
        with pytest.raises(WireError):
            wire.decode_response(bad)

    def test_nested_expressions_rejected(self):
        inner = {"expr": "a", "operands": {
            "a": {"metric": "m", "start": 0, "end": 1}}}
        with pytest.raises(WireError):
            wire.decode_request({
                "version": WIRE_VERSION,
                "queries": [{"expr": "x + 1", "operands": {"x": inner}}],
            })

    def test_unsafe_wire_formula_rejected(self):
        with pytest.raises(WireError):
            wire.decode_request({
                "version": WIRE_VERSION,
                "queries": [{
                    "expr": "__import__('os').system('true')",
                    "operands": {"a": {"metric": "m", "start": 0, "end": 1}},
                }],
            })

    def test_builders_encode_like_their_query(self):
        b = select("m").range(0, 100).where(node="a").downsample("5m-avg")
        assert wire.encode_query(b) == wire.encode_query(b.build())

    def test_boolean_timestamps_rejected(self):
        """``True`` is an ``int`` to Python but not to the wire format."""
        for bad in (
            {"metric": "m", "start": True, "end": 10},
            {"metric": "m", "start": 0, "end": False},
        ):
            with pytest.raises(WireError, match="integer timestamp"):
                wire.decode_request(
                    {"version": WIRE_VERSION, "queries": [bad]}
                )

    def test_non_integral_timestamps_rejected(self):
        with pytest.raises(WireError, match="integer timestamp"):
            wire.decode_request({
                "version": WIRE_VERSION,
                "queries": [{"metric": "m", "start": 0.5, "end": 10}],
            })

    def test_integral_float_timestamps_accepted(self):
        """JSON writers that emit ``100.0`` for 100 still interoperate."""
        (q,) = wire.decode_request({
            "version": WIRE_VERSION,
            "queries": [{"metric": "m", "start": 100.0, "end": 2.0e3}],
        })
        assert (q.start, q.end) == (100, 2000)
        assert isinstance(q.start, int) and isinstance(q.end, int)


class TestInfinityEncoding:
    """±inf travels as explicit strings; NaN as null; never bare tokens."""

    def _db_with(self, *values):
        db = TSDB()
        for i, v in enumerate(values):
            db.put("m", i * 10, v, {"node": "a"})
        return db

    def test_response_json_is_rfc8259_valid(self):
        db = self._db_with(1.0, math.inf, -math.inf, 2.5)
        res = db.run_many([Query("m", 0, 100)])
        text = wire.response_to_json(res)
        # stdlib strict parsing: would fail on bare Infinity/NaN tokens
        payload = json.loads(text, parse_constant=lambda t: pytest.fail(
            f"bare non-finite token {t!r} in wire JSON"))
        dps = payload["results"][0]["series"][0]["dps"]
        assert dps["10"] == "Infinity"
        assert dps["20"] == "-Infinity"

    def test_infinity_round_trip(self):
        db = self._db_with(math.inf, -math.inf)
        res = db.run_many([Query("m", 0, 100)])
        (decoded,) = wire.decode_response(wire.response_to_json(res))
        assert list(decoded.series[0].values) == [math.inf, -math.inf]

    def test_unknown_value_spellings_rejected(self):
        base = {"version": WIRE_VERSION, "results": [
            {"series": [{"metric": "m", "tags": {}, "dps": {"0": None}}],
             "scannedPoints": 0}]}
        for bad in ("inf", "+Infinity", "NaN", True):
            payload = json.loads(json.dumps(base))
            payload["results"][0]["series"][0]["dps"]["0"] = bad
            with pytest.raises(WireError):
                wire.decode_response(payload)


class TestErrorResponses:
    """Satellite 1: errors are answered in-band, not raised at the caller."""

    def test_handle_request_answers_bad_version(self, db):
        response = handle_request(db, {"version": 99, "queries": []})
        assert response["version"] == WIRE_VERSION
        assert response["error"]["type"] == "WireError"
        assert "version" in response["error"]["message"]

    def test_handle_request_answers_malformed_query(self, db):
        response = handle_request(db, {
            "version": WIRE_VERSION,
            "queries": [{"metric": "m", "start": 5, "end": 1}],
        })
        assert response["error"]["type"] == "WireError"

    def test_handle_request_answers_bad_json_text(self, db):
        response = handle_request(db, "{not json")
        assert response["error"]["type"] == "WireError"

    def test_error_response_survives_json(self, db):
        response = handle_request(db, {"version": 99})
        assert json.loads(wire.error_to_json(
            WireError(response["error"]["message"]))) is not None
        assert json.loads(json.dumps(response, allow_nan=False)) == response

    def test_decode_response_raises_remote_error(self):
        response = wire.encode_error(WireError("nope"))
        with pytest.raises(RemoteQueryError) as err:
            wire.decode_response(response)
        assert err.value.error_type == "WireError"
        assert err.value.message == "nope"

    def test_good_request_unaffected(self, db):
        qs = [Query("air.co2.ppm", 0, 4000)]
        response = handle_request(db, wire.request_to_json(qs))
        assert "error" not in response
        assert wire.decode_response(response)


class TestCatalogCodec:
    @pytest.fixture
    def db(self):
        db = TSDB()
        for node in ("a", "b", "c"):
            db.put("air.co2.ppm", 10, 400.0,
                   {"node": node, "city": "trondheim"})
        db.put("weather.temperature.c", 10, 3.0, {"city": "vejle"})
        return db

    @pytest.mark.parametrize("op,kwargs", [
        ("metrics", {}),
        ("tag_keys", {"metric": "air.co2.ppm"}),
        ("tag_values", {"metric": "air.co2.ppm", "key": "node"}),
        ("cardinality", {"metric": "air.co2.ppm"}),
        ("cardinality", {"metric": "air.co2.ppm",
                         "tags": {"node": "a|b", "city": "*"}}),
    ])
    def test_request_round_trip(self, op, kwargs):
        encoded = wire.encode_catalog_request(op, **kwargs)
        req = wire.decode_catalog_request(json.dumps(encoded))
        assert req.op == op
        assert req.metric == kwargs.get("metric")
        assert req.key == kwargs.get("key")
        assert dict(req.tags) == kwargs.get("tags", {})

    def test_handle_answers_from_store(self, db):
        r = wire.handle_catalog_request(
            db, wire.encode_catalog_request("metrics"))
        assert wire.decode_catalog_response(r) == [
            "air.co2.ppm", "weather.temperature.c"]
        r = wire.handle_catalog_request(
            db,
            wire.encode_catalog_request(
                "tag_values", metric="air.co2.ppm", key="node"),
        )
        assert wire.decode_catalog_response(r) == ["a", "b", "c"]
        r = wire.handle_catalog_request(
            db,
            wire.encode_catalog_request(
                "cardinality", metric="air.co2.ppm", tags={"node": "a|b"}),
        )
        assert wire.decode_catalog_response(r) == 2

    def test_response_echoes_identifying_fields(self, db):
        r = wire.handle_catalog_request(
            db,
            wire.encode_catalog_request(
                "tag_values", metric="air.co2.ppm", key="node"),
        )
        assert r["catalog"]["op"] == "tag_values"
        assert r["catalog"]["metric"] == "air.co2.ppm"
        assert r["catalog"]["key"] == "node"
        assert json.loads(json.dumps(r, allow_nan=False)) == r

    @pytest.mark.parametrize("request_obj,fragment", [
        ({"version": 99, "catalog": {"op": "metrics"}}, "version"),
        ({"version": WIRE_VERSION}, "'catalog' must be an object"),
        ({"version": WIRE_VERSION, "catalog": {"op": "nope"}},
         "unknown catalog op"),
        ({"version": WIRE_VERSION, "catalog": {"op": "metrics"},
          "extra": 1}, "unknown request fields"),
        ({"version": WIRE_VERSION,
          "catalog": {"op": "metrics", "bogus": 1}},
         "unknown catalog fields"),
        ({"version": WIRE_VERSION, "catalog": {"op": "tag_keys"}},
         "missing required field"),
        ({"version": WIRE_VERSION, "catalog": {"op": "tag_values",
                                               "metric": "m"}},
         "missing required field"),
        ({"version": WIRE_VERSION,
          "catalog": {"op": "metrics", "metric": "m"}},
         "does not take field"),
        ({"version": WIRE_VERSION,
          "catalog": {"op": "tag_keys", "metric": "m", "tags": {}}},
         "does not take field"),
        ({"version": WIRE_VERSION,
          "catalog": {"op": "cardinality", "metric": "m", "tags": 3}},
         "'tags' must be an object"),
        ({"version": WIRE_VERSION,
          "catalog": {"op": "tag_keys", "metric": 5}},
         "'metric' must be a string"),
    ])
    def test_strict_decode_rejections(self, request_obj, fragment):
        with pytest.raises(WireError) as err:
            wire.decode_catalog_request(request_obj)
        assert fragment in str(err.value)

    def test_handle_answers_errors_in_band(self, db):
        r = wire.handle_catalog_request(db, "{not json")
        assert r["error"]["type"] == "WireError"
        r = wire.handle_catalog_request(
            db,
            wire.encode_catalog_request(
                "tag_values", metric="air.co2.ppm", key="bad|key"),
        )
        assert r["error"]["type"] == "InvalidName"
        with pytest.raises(RemoteQueryError) as err:
            wire.decode_catalog_response(r)
        assert err.value.error_type == "InvalidName"

    def test_decode_response_strictness(self):
        with pytest.raises(WireError):
            wire.decode_catalog_response({"version": 99})
        with pytest.raises(WireError):
            wire.decode_catalog_response(
                {"version": WIRE_VERSION, "catalog": []})
        with pytest.raises(WireError):
            wire.decode_catalog_response(
                {"version": WIRE_VERSION, "catalog": {"values": "oops"}})
        with pytest.raises(WireError):
            wire.decode_catalog_response(
                {"version": WIRE_VERSION, "catalog": {"count": True}})
