"""Round-trip tests for the versioned JSON wire codec.

Requests must decode back to the queries that encoded them (hypothesis
over the whole Query parameter space), responses must carry every
timestamp/value bit-exactly through JSON text (two base64 columns;
every NaN travels as the one quiet NaN, ±inf and −0.0 as their bits),
and the strict version/field/column checking must reject drift loudly.
"""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import Query, TSDB, WireError
from repro.tsdb.wire import RemoteQueryError, WIRE_VERSION, handle_request
from repro.tsdb import wire

#: The bits of the one NaN a column carries.
CANONICAL_NAN = 0x7FF8000000000000


def bits(values) -> list[int]:
    """A value column's bits, every NaN the canonical one."""
    out = np.asarray(values, dtype="<f8").view("<u8").copy()
    out[np.isnan(values)] = CANONICAL_NAN
    return out.tolist()


def b64(values, dtype) -> str:
    return base64.b64encode(np.array(values, dtype).tobytes()).decode()


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


@settings(max_examples=100, deadline=None)
@given(qs=st.lists(queries(), max_size=4))
def test_request_round_trip(qs):
    text = json.dumps(wire.encode_request(qs))
    decoded = wire.decode_request(text)
    assert len(decoded) == len(qs)
    assert decoded == qs


@settings(max_examples=50, deadline=None)
@given(q=queries(), formula=st.sampled_from(("a - b", "a / b", "-a + 2")))
def test_an_expr_query_is_refused_naming_its_fields(q, formula):
    """The wire has one query form.  A version-2 request that still
    sends the expression form ``{"expr", "operands"}`` is refused by the
    strict field check, naming both fields, beside a plain query that
    still decodes on its own."""
    old = {"expr": formula, "operands": {"a": wire.encode_query(q)}}
    request = {"version": WIRE_VERSION,
               "queries": [wire.encode_query(q), old]}
    with pytest.raises(WireError,
                       match=r"unknown query fields: \['expr', 'operands'\]"):
        wire.decode_request(json.dumps(request))
    request["queries"].pop()
    (decoded,) = wire.decode_request(json.dumps(request))
    assert decoded == q


@settings(max_examples=50, deadline=None)
@given(
    ts=st.lists(st.integers(0, 2**40), min_size=0, max_size=30, unique=True),
    data=st.data(),
)
def test_response_value_round_trip(ts, data):
    """Every float bit (±inf and −0.0 included) survives JSON text;
    every NaN arrives as the canonical one."""
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
    text = wire.encode_response_json(res)
    (decoded,) = wire.decode_response(text)
    (got,) = decoded.series
    want = res[0].single()
    assert got.timestamps.dtype == np.int64
    assert np.array_equal(got.timestamps, want.timestamps)
    assert got.values.view("<u8").tolist() == bits(want.values)
    assert not (got.timestamps.flags.writeable or got.values.flags.writeable)
    assert decoded.scanned_points == res[0].scanned_points


@settings(max_examples=50, deadline=None)
@given(
    ts=st.lists(st.integers(0, 2**40), min_size=0, max_size=12, unique=True),
    split=st.integers(0, 12),
    tags=st.dictionaries(names, names, max_size=2),
    data=st.data(),
)
def test_reply_text_equals_dumps_of_the_dict_codec(ts, split, tags, data):
    """The bytes-level encoder is ``json.dumps`` of the dict codec: a
    series is its head and two base64 columns, any cut of a column at a
    multiple of 3 values splices back into the whole as text, and a
    response and a line come out the same from either form."""
    values = data.draw(
        st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                 min_size=len(ts), max_size=len(ts)))
    db = TSDB()
    if ts:
        db.put_series("m", np.array(sorted(ts), np.int64),
                      np.array(values, np.float64), {"k": "v", **tags})
    q = Query("m", 0, 2**40, group_by=tuple(sorted(tags)))
    results = db.run_many(
        [q, Query("m", 0, 2**40, aggregator="count"), Query("absent", 0, 1)])

    def dumps(obj):
        return json.dumps(obj, allow_nan=False).encode()

    for s, encoded in zip(results[0].series,
                          wire.encode_response(results)["results"][0]["series"]):
        t, v = (c.decode() for c in wire.encode_columns(s.timestamps, s.values))
        assert encoded == {"metric": s.metric, "tags": s.group_tags,
                           "t": t, "v": v}
        assert len(base64.b64decode(t)) == len(base64.b64decode(v)) == 8 * len(s)
        cut = min(split, len(s)) // 3 * 3
        head = wire.encode_columns(s.timestamps[:cut], s.values[:cut])
        rest = wire.encode_columns(s.timestamps[cut:], s.values[cut:])
        assert wire.splice_column(head[0].decode(), cut, rest[0].decode()) == t
        assert wire.splice_column(v, cut, rest[1].decode()) == v
        # a cut off the 3-value grid, or past what is held, is refused
        assert wire.splice_column(t, cut + 1, "") is None
        assert wire.splice_column(t, len(s) // 3 * 3 + 3, "") is None
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
        response = handle_request(db, json.dumps(wire.encode_request(qs)))
        direct = wire.encode_response(db.run_many(qs))
        assert response == direct
        # and the whole response survives a JSON round trip
        assert json.loads(json.dumps(response)) == response

    def test_expression_over_the_wire(self, db):
        """An expression query is answered in band: an error response
        naming the fields, never an exception."""
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
        assert response["error"]["type"] == "WireError"
        assert "'expr'" in response["error"]["message"]
        with pytest.raises(RemoteQueryError, match="expr"):
            wire.decode_response(response)

    def test_nan_encodes_as_one_quiet_nan(self, db):
        request = wire.encode_request(
            [Query("air.co2.ppm", 0, 7200, downsample="10m-avg-nan")]
        )
        response = handle_request(db, request)
        (decoded,) = wire.decode_response(response)
        values = decoded.series[0].values
        assert math.isnan(values[-1])  # the gap buckets
        assert {b for b in values.view("<u8").tolist()
                if b >> 52 & 0x7FF == 0x7FF} == {CANONICAL_NAN}
        # NaNs of any sign and payload are sent as the one NaN, so equal
        # results are equal bytes
        odd = np.array([0xFFF8000000000000, 0x7FF8000000000001,
                        0x7FF8000000000000], "<u8").view("<f8")
        other = TSDB()
        other.put_series("m", np.arange(3, dtype=np.int64), odd)
        res = other.run_many([Query("m", 0, 10)])
        (series,) = wire.encode_response(res)["results"][0]["series"]
        assert series["v"] == b64([CANONICAL_NAN] * 3, "<u8")


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
        """Data points whose columns do not decode to two equal-length
        arrays with strictly increasing timestamps are rejected."""
        good = {"t": b64([0, 10, 20], "<i8"), "v": b64([1.0, 2.0, 3.0], "<f8")}
        for columns, match in (
            ({"t": "AAAA AAAAAAA"}, "not base64"),
            ({"t": "AAAAAAAAAAA"}, "not base64"),
            ({"v": base64.b64encode(bytes(20)).decode()}, "8-byte"),
            ({"v": b64([1.0, 2.0], "<f8")}, "3 values and 'v' 2"),
            ({"t": b64([0, 20, 10], "<i8")}, "strictly increasing"),
            ({"t": b64([0, 10, 10], "<i8")}, "strictly increasing"),
            ({"t": [0, 10, 20]}, "base64 string"),
            ({"v": None}, "base64 string"),
        ):
            bad = {"version": WIRE_VERSION, "results": [
                {"series": [{"metric": "m", "tags": {}, **good, **columns}],
                 "scannedPoints": 0},
            ]}
            with pytest.raises(WireError, match=match):
                wire.decode_response(bad)

    def test_nested_expressions_rejected(self):
        inner = {"expr": "a", "operands": {
            "a": {"metric": "m", "start": 0, "end": 1}}}
        with pytest.raises(WireError, match="unknown query fields"):
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
    """±inf travels as its bits inside base64 text: never a bare token."""

    def _db_with(self, *values):
        db = TSDB()
        for i, v in enumerate(values):
            db.put("m", i * 10, v, {"node": "a"})
        return db

    def test_response_json_is_rfc8259_valid(self):
        db = self._db_with(1.0, math.inf, -math.inf, 2.5)
        res = db.run_many([Query("m", 0, 100)])
        text = wire.encode_response_json(res)
        # stdlib strict parsing: would fail on bare Infinity/NaN tokens
        payload = json.loads(text, parse_constant=lambda t: pytest.fail(
            f"bare non-finite token {t!r} in wire JSON"))
        (series,) = payload["results"][0]["series"]
        assert series["v"] == b64([1.0, math.inf, -math.inf, 2.5], "<f8")

    def test_infinity_round_trip(self):
        db = self._db_with(math.inf, -math.inf)
        res = db.run_many([Query("m", 0, 100)])
        (decoded,) = wire.decode_response(wire.encode_response_json(res))
        assert list(decoded.series[0].values) == [math.inf, -math.inf]

    def test_unknown_value_spellings_rejected(self):
        """A value column is base64 of whole ``<f8`` values: the v1
        spellings, the URL-safe alphabet and unpadded text are not."""
        base = {"version": WIRE_VERSION, "results": [
            {"series": [{"metric": "m", "tags": {}, "t": b64([0], "<i8"),
                         "v": b64([math.inf], "<f8")}],
             "scannedPoints": 0}]}
        wire.decode_response(base)
        for bad in ("inf", "+Infinity", "NaN", "Infinity", True,
                    "AAAAAAAA8H8", "AAAAAAAA8H-_", b64([math.inf], "<f4")):
            payload = json.loads(json.dumps(base))
            payload["results"][0]["series"][0]["v"] = bad
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
        assert json.loads(json.dumps(
            wire.encode_error(WireError(response["error"]["message"])),
            allow_nan=False)) is not None
        assert json.loads(json.dumps(response, allow_nan=False)) == response

    def test_decode_response_raises_remote_error(self):
        response = wire.encode_error(WireError("nope"))
        with pytest.raises(RemoteQueryError) as err:
            wire.decode_response(response)
        assert err.value.error_type == "WireError"
        assert err.value.message == "nope"

    @pytest.mark.parametrize("field,value,named", [
        ("rate", "false", "rate"),
        ("tags", {"node": 1}, "tags"),
        ("tags", {"node": None}, "tags"),
        ("groupBy", ["node", 2], "group_by"),
        ("downsample", 5, "downsample"),
        ("downsample", ["5m-avg"], "downsample"),
    ])
    def test_a_mistyped_field_is_refused_in_band(self, db, field, value, named):
        """The wire coerces nothing: a value ``Query`` refuses is an
        in-band ``WireError`` naming the field — not a query for rate
        ``"false"`` or node ``"1"``, and not an exception out of
        ``handle_request``."""
        bad = {"metric": "air.co2.ppm", "start": 0, "end": 4000, field: value}
        request = {"version": WIRE_VERSION, "queries": [bad]}
        with pytest.raises(WireError, match=named):
            wire.decode_request(request)
        response = handle_request(db, request)
        assert response["error"]["type"] == "WireError"
        assert named in response["error"]["message"]

    def test_good_request_unaffected(self, db):
        qs = [Query("air.co2.ppm", 0, 4000)]
        response = handle_request(db, json.dumps(wire.encode_request(qs)))
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
        assert r["catalog"]["values"] == [
            "air.co2.ppm", "weather.temperature.c"]
        r = wire.handle_catalog_request(
            db,
            wire.encode_catalog_request(
                "tag_values", metric="air.co2.ppm", key="node"),
        )
        assert r["catalog"]["values"] == ["a", "b", "c"]
        r = wire.handle_catalog_request(
            db,
            wire.encode_catalog_request(
                "cardinality", metric="air.co2.ppm", tags={"node": "a|b"}),
        )
        assert r["catalog"]["count"] == 2

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
        # a non-string tag filter is refused, as the query codec refuses
        # it — not counted as node "1", "None" or "['a']"
        *(({"version": WIRE_VERSION,
            "catalog": {"op": "cardinality", "metric": "m",
                        "tags": {"node": value}}},
           "strings to strings") for value in (1, None, ["a"])),
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
