"""Versioned OpenTSDB-style JSON codec for query requests/responses.

The wire format is the stable outer skin of the query engine: dashboards
(or a future HTTP endpoint) speak JSON, the planner speaks
:class:`~repro.tsdb.query.Query` / :class:`~repro.tsdb.plan.ExprQuery`.
The shape mirrors OpenTSDB's ``/api/query``:

.. code-block:: json

    {"version": 1, "queries": [
        {"metric": "air.co2.ppm", "start": 0, "end": 3600,
         "tags": {"city": "trondheim"}, "aggregator": "avg",
         "downsample": "5m-avg", "rate": false, "groupBy": ["node"]},
        {"expr": "a - b", "operands": {"a": {"metric": "..."},
                                       "b": {"metric": "..."}}}
    ]}

and the response carries one entry per request query, each with its
result series as ``dps`` maps (timestamp → value, NaN encoded as
``null``) plus scanned-point accounting:

.. code-block:: json

    {"version": 1, "results": [
        {"series": [{"metric": "air.co2.ppm", "tags": {"node": "ctt-01"},
                     "dps": {"0": 412.5, "300": null}}],
         "scannedPoints": 1234}
    ]}

A serving layer may answer a client that says what it still holds with
less than that — an entry whose ``series`` are replaced by
``"notModified": true`` or by the ``"tail"`` to append — see
:func:`encode_response_json`; a client puts such entries back into the
form above before decoding.

Floats round-trip exactly (Python's JSON float repr is shortest
round-trip); NaN encodes as ``null`` and ``±inf`` as the strings
``"Infinity"`` / ``"-Infinity"`` so the emitted text is always valid
RFC 8259 JSON (``response_to_json`` enforces this with
``allow_nan=False``).  Unknown versions and unknown fields are rejected
loudly so format drift cannot pass silently.

:func:`handle_request` is the one-call server side: decode →
``run_many`` → encode.  Failures come back as a versioned *error
response* — ``{"version": 1, "error": {"type": ..., "message": ...}}``
— never as an exception, so one malformed query cannot kill a server
connection; :func:`decode_response` surfaces such a payload to clients
as :class:`RemoteQueryError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .catalog import CardinalityLimitError
from .model import InvalidName
from .plan import ExprQuery, ExprResult, QueryBuilder
from .query import Query, QueryError, QueryResult

#: Current (and only) wire format version.
WIRE_VERSION = 1


class WireError(ValueError):
    """Malformed wire request/response."""


class RemoteQueryError(RuntimeError):
    """The server answered with an error response instead of results.

    Carries the server-side exception class name (``error_type``) and
    message, so clients can distinguish a bad request (``WireError``,
    ``QueryError`` — fix the query) from a server fault
    (``InternalError`` — retry elsewhere).
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


_QUERY_FIELDS = {
    "metric", "start", "end", "tags", "aggregator", "downsample", "rate",
    "groupBy",
}
_EXPR_FIELDS = {"expr", "operands"}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def encode_query(q: Query | QueryBuilder | ExprQuery) -> dict:
    """One query as its wire dict (sub-queries of expressions recurse)."""
    if isinstance(q, QueryBuilder):
        q = q.build()
    if isinstance(q, ExprQuery):
        return {
            "expr": q.formula,
            "operands": {name: encode_query(sub) for name, sub in q.operands},
        }
    if not isinstance(q, Query):
        raise WireError(f"cannot encode {type(q).__name__} as a wire query")
    out: dict = {"metric": q.metric, "start": int(q.start), "end": int(q.end)}
    if q.tags:
        out["tags"] = {str(k): str(v) for k, v in sorted(q.tags.items())}
    out["aggregator"] = q.aggregator
    if q.downsample is not None:
        ds = q.parsed_downsample()
        out["downsample"] = ds.spec()
    if q.rate:
        out["rate"] = True
    if q.group_by:
        out["groupBy"] = sorted(q.group_by)
    return out


def encode_request(
    queries: Sequence[Query | QueryBuilder | ExprQuery],
) -> dict:
    """A ``run_many`` batch as a versioned wire request dict."""
    return {
        "version": WIRE_VERSION,
        "queries": [encode_query(q) for q in queries],
    }


def request_to_json(
    queries: Sequence[Query | QueryBuilder | ExprQuery], **dumps_kwargs
) -> str:
    return json.dumps(encode_request(queries), **dumps_kwargs)


def _decode_timestamp(obj: Mapping, field: str) -> int:
    """A ``start``/``end`` value as an exact integer timestamp.

    ``int()`` alone would silently reshape the query range: ``true``
    becomes 1 (bool is an int subclass) and ``3.9`` truncates to 3.
    Accept integers and integral floats (clients that serialize every
    JSON number as a float still round-trip exactly); reject everything
    else loudly.
    """
    v = obj[field]
    if isinstance(v, bool):
        raise WireError(f"{field!r} must be an integer timestamp, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise WireError(
        f"{field!r} must be an integer timestamp, got {v!r} "
        f"({type(v).__name__})"
    )


def decode_query(obj: Mapping) -> Query | ExprQuery:
    """One wire dict back into a planner query (strict field checking)."""
    if not isinstance(obj, Mapping):
        raise WireError(f"query must be an object, got {type(obj).__name__}")
    if "expr" in obj:
        unknown = set(obj) - _EXPR_FIELDS
        if unknown:
            raise WireError(f"unknown expression fields: {sorted(unknown)}")
        operands = obj.get("operands")
        if not isinstance(operands, Mapping) or not operands:
            raise WireError("expression needs a non-empty 'operands' object")
        decoded_ops = []
        for name, sub in sorted(operands.items()):
            sub_q = decode_query(sub)
            if isinstance(sub_q, ExprQuery):
                raise WireError("nested expressions are not supported")
            decoded_ops.append((str(name), sub_q))
        try:
            return ExprQuery(str(obj["expr"]), tuple(decoded_ops))
        except QueryError as exc:
            raise WireError(str(exc)) from None
    unknown = set(obj) - _QUERY_FIELDS
    if unknown:
        raise WireError(f"unknown query fields: {sorted(unknown)}")
    for field in ("metric", "start", "end"):
        if field not in obj:
            raise WireError(f"query is missing required field {field!r}")
    tags = obj.get("tags", {})
    if not isinstance(tags, Mapping):
        raise WireError("'tags' must be an object of tag filters")
    group_by = obj.get("groupBy", ())
    if isinstance(group_by, str) or not isinstance(group_by, Sequence):
        raise WireError("'groupBy' must be a list of tag keys")
    try:
        return Query(
            metric=obj["metric"],
            start=_decode_timestamp(obj, "start"),
            end=_decode_timestamp(obj, "end"),
            tags={str(k): str(v) for k, v in tags.items()},
            aggregator=str(obj.get("aggregator", "avg")),
            downsample=obj.get("downsample"),
            rate=bool(obj.get("rate", False)),
            group_by=tuple(str(g) for g in group_by),
        )
    except WireError:
        raise
    except (QueryError, TypeError, ValueError) as exc:
        raise WireError(str(exc)) from None


def decode_request(request: str | bytes | Mapping) -> list[Query | ExprQuery]:
    """A wire request (JSON text or already-parsed dict) into queries."""
    if isinstance(request, (str, bytes)):
        try:
            request = json.loads(request)
        except json.JSONDecodeError as exc:
            raise WireError(f"request is not valid JSON: {exc}") from None
    if not isinstance(request, Mapping):
        raise WireError("request must be a JSON object")
    version = request.get("version")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} (this codec speaks "
            f"{WIRE_VERSION})"
        )
    unknown = set(request) - {"version", "queries"}
    if unknown:
        raise WireError(f"unknown request fields: {sorted(unknown)}")
    queries = request.get("queries")
    if not isinstance(queries, Sequence) or isinstance(queries, (str, bytes)):
        raise WireError("'queries' must be a list")
    return [decode_query(q) for q in queries]


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


def _encode_value(v: float) -> float | str | None:
    """NaN → null, ±inf → "Infinity"/"-Infinity", else the float.

    ``json.dumps`` would happily emit bare ``Infinity`` tokens — valid
    Python, invalid JSON per RFC 8259 — so infinities go over the wire
    as strings and :func:`decode_response` maps them back exactly.
    """
    if math.isnan(v):
        return None
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return float(v)


def _decode_value(v) -> float:
    """Inverse of :func:`_encode_value` (strict about string spellings)."""
    if v is None:
        return math.nan
    if isinstance(v, str):
        if v == "Infinity":
            return math.inf
        if v == "-Infinity":
            return -math.inf
        raise WireError(f"unexpected string value {v!r} in dps")
    if isinstance(v, bool):
        raise WireError("unexpected boolean value in dps")
    return float(v)


def _encode_dps(timestamps: np.ndarray, values: np.ndarray) -> dict:
    return {
        str(int(ts)): _encode_value(val)
        for ts, val in zip(timestamps.tolist(), values.tolist())
    }


def _encode_series_head(s) -> dict:
    return {"metric": s.metric, "tags": dict(sorted(s.group_tags.items()))}


def _encode_series(s) -> dict:
    return {
        **_encode_series_head(s),
        "dps": _encode_dps(s.timestamps, s.values),
    }


def encode_response(
    results: Sequence[QueryResult | ExprResult],
) -> dict:
    """``run_many`` output as a versioned wire response dict."""
    entries = []
    for res in results:
        entry: dict = {}
        if isinstance(res, ExprResult):
            entry["expr"] = res.expr.formula
        entry["series"] = [_encode_series(s) for s in res.series]
        entry["scannedPoints"] = int(res.scanned_points)
        entries.append(entry)
    return {"version": WIRE_VERSION, "results": entries}


def encode_error(exc: BaseException) -> dict:
    """An exception as a versioned wire *error response*.

    The server-side dual of :func:`encode_response`: a request that
    cannot be served still gets a well-formed, versioned reply, so the
    connection it arrived on stays usable.  ``type`` is the exception
    class name (``WireError``, ``QueryError``, ...).
    """
    return {
        "version": WIRE_VERSION,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def response_to_json(
    results: Sequence[QueryResult | ExprResult], **dumps_kwargs
) -> str:
    # allow_nan=False makes leaking a non-finite float a loud codec bug
    # here instead of unparseable output at some client.
    dumps_kwargs.setdefault("allow_nan", False)
    return json.dumps(encode_response(results), **dumps_kwargs)


def error_to_json(exc: BaseException, **dumps_kwargs) -> str:
    dumps_kwargs.setdefault("allow_nan", False)
    return json.dumps(encode_error(exc), **dumps_kwargs)


# -- reply text ------------------------------------------------------------
#
# The same responses as JSON *text*, assembled from per-series pieces so a
# server can encode a result series once and join it into every reply that
# carries it.  ``json.dumps(encode_response(...), allow_nan=False)`` is the
# reference: each piece is made by ``json.dumps`` itself and the pieces are
# joined with its default ``", "`` / ``": "`` separators, so every function
# here returns exactly the bytes the reference would.

#: What closes a series' text after its last ``dps`` entry.
SERIES_JSON_TAIL = b"}}"


def series_json(s) -> bytes:
    """JSON text of one result series."""
    return json.dumps(_encode_series(s), allow_nan=False).encode()


def series_head_json(s) -> bytes:
    """:func:`series_json` up to and including its ``dps`` map's ``{``.

    With :func:`dps_json` and :data:`SERIES_JSON_TAIL`, the three pieces
    a splice reassembles a series' text from:
    ``series_json(s) == series_head_json(s) + dps_json(ts, vals) + TAIL``.
    """
    head = json.dumps(_encode_series_head(s), allow_nan=False)
    return head[:-1].encode() + b', "dps": {'


def dps_json(timestamps: np.ndarray, values: np.ndarray) -> bytes:
    """The entries of a ``dps`` map without its braces (empty: ``b""``)."""
    return json.dumps(
        _encode_dps(timestamps, values), allow_nan=False
    )[1:-1].encode()


def tail_json(tails: Sequence[tuple[int, bytes]]) -> bytes:
    """The elements of a *tail* entry's ``tail`` array, one ``(keep,
    dps_json text)`` pair per series: keep that many leading ``dps``
    entries of the series held, then append these."""
    return b", ".join(
        [b'{"keep": %d, "dps": {%s}}' % (keep, dps) for keep, dps in tails]
    )


def encode_response_json(
    results: Sequence[QueryResult | ExprResult],
    *,
    series_json=series_json,
    held: Sequence[str | None] | None = None,
    validator=None,
    tail=None,
    forms: list | None = None,
) -> bytes:
    """``run_many`` output as the JSON text of its wire response.

    ``series_json`` maps one result series to its text; a serving layer
    passes a memoising one.

    ``held`` makes the reply conditional: aligned with ``results``, it
    names per entry the ``series`` array the client says it still holds
    (None: nothing).  ``validator`` maps an entry's series to the name
    of their text, and the reply gains ``"validators"``, aligned with
    ``"results"``.  An entry whose validator equals what is held is
    answered ``"notModified": true`` in place of its ``"series"``;
    otherwise ``tail`` (if given) maps ``(series, held validator)`` to
    :func:`tail_json` text when the series extend the held ones, and the
    entry carries ``"tail"``; otherwise it is the full entry.  ``expr``
    and ``scannedPoints`` are sent in every form.  ``forms``, if given,
    receives each entry's form: ``"full"``, ``"not_modified"`` or
    ``"tail"``.
    """
    entries = []
    validators = []
    for i, res in enumerate(results):
        head = b"{"
        if isinstance(res, ExprResult):
            head = b'{"expr": %s, ' % json.dumps(res.expr.formula).encode()
        form, body = "full", None
        if held is not None:
            name = validator(res.series)
            validators.append(name)
            if name == held[i]:
                form, body = "not_modified", b'"notModified": true'
            elif tail is not None and held[i] is not None:
                tails = tail(res.series, held[i])
                if tails is not None:
                    form, body = "tail", b'"tail": [%s]' % tails
        if body is None:
            body = b'"series": [%s]' % b", ".join(
                [series_json(s) for s in res.series]
            )
        if forms is not None:
            forms.append(form)
        entries.append(
            b'%s%s, "scannedPoints": %d}' % (head, body, int(res.scanned_points))
        )
    return b'{"version": %d, "results": [%s]%s}' % (
        WIRE_VERSION,
        b", ".join(entries),
        b"" if held is None
        else b', "validators": %s' % json.dumps(validators).encode(),
    )


def reply_line(response: bytes | Mapping, id_json: bytes | None = None) -> bytes:
    """One newline-terminated reply: a response with the request id last.

    ``response`` is a response object's JSON text, or the (small) dict
    of an error or catalog response; ``id_json`` is the request id's own
    JSON text, ``None`` for a request that carried none.  Equals
    ``json.dumps({**response, "id": id}, allow_nan=False) + "\n"``.
    """
    if not isinstance(response, bytes):
        response = json.dumps(response, allow_nan=False).encode()
    if id_json is None:
        return response + b"\n"
    return b'%s, "id": %s}\n' % (response[:-1], id_json)


@dataclass(frozen=True)
class WireSeries:
    """One decoded result series (client-side view)."""

    metric: str
    tags: dict
    timestamps: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


@dataclass(frozen=True)
class WireResult:
    """One decoded per-query result (client-side view)."""

    series: tuple[WireSeries, ...]
    scanned_points: int
    expr: str | None = None

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self):
        return iter(self.series)


def decode_series(series: Sequence[Mapping]) -> tuple[WireSeries, ...]:
    """One entry's ``series`` array as numpy-backed series."""
    return tuple(
        _wire_series(
            str(s.get("metric", "")),
            s.get("tags", {}),
            *_decode_dps(s.get("dps", {})),
        )
        for s in series
    )


def _decode_dps(dps: Mapping) -> tuple[np.ndarray, np.ndarray]:
    try:
        return (
            np.array([int(k) for k in dps], dtype=np.int64),
            np.array([_decode_value(v) for v in dps.values()], dtype=np.float64),
        )
    except WireError:
        raise
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed dps entry: {exc}") from None


def _wire_series(
    metric: str, tags: Mapping, ts: np.ndarray, vals: np.ndarray
) -> WireSeries:
    order = np.argsort(ts, kind="stable")
    return WireSeries(
        metric=metric, tags=dict(tags), timestamps=ts[order], values=vals[order]
    )


def extend_series(
    prev: Sequence[WireSeries], tails: Sequence[Mapping]
) -> tuple[WireSeries, ...]:
    """:func:`decode_series` of the series a *tail* entry describes,
    decoding only the tail: each of ``prev`` cut to its first ``keep``
    points, followed by the tail's."""
    out = []
    for held, t in zip(prev, tails):
        ts, vals = _decode_dps(t["dps"])
        keep = t["keep"]
        out.append(
            _wire_series(
                held.metric,
                held.tags,
                np.concatenate([held.timestamps[:keep], ts]),
                np.concatenate([held.values[:keep], vals]),
            )
        )
    return tuple(out)


def decode_response(
    response: str | bytes | Mapping, *, decode_series=decode_series
) -> list[WireResult]:
    """A wire response back into numpy-backed client results.

    ``decode_series`` maps one entry's ``series`` array to its decoded
    series; a client that holds replies passes a memoising one.
    """
    if isinstance(response, (str, bytes)):
        try:
            response = json.loads(response)
        except json.JSONDecodeError as exc:
            raise WireError(f"response is not valid JSON: {exc}") from None
    if not isinstance(response, Mapping):
        raise WireError("response must be a JSON object")
    if response.get("version") != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {response.get('version')!r}"
        )
    error = response.get("error")
    if error is not None:
        if not isinstance(error, Mapping):
            raise WireError("'error' must be an object")
        raise RemoteQueryError(
            str(error.get("type", "Error")), str(error.get("message", ""))
        )
    return [
        WireResult(
            series=decode_series(entry.get("series", ())),
            scanned_points=int(entry.get("scannedPoints", 0)),
            expr=entry.get("expr"),
        )
        for entry in response.get("results", ())
    ]


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


def handle_request(store, request: str | bytes | Mapping) -> dict:
    """Decode a wire request, execute it as one batch, encode the reply.

    The whole request plans together through ``store.run_many`` —
    shared matching, shared scans — so a 12-panel dashboard
    request costs one planning pass, not twelve.

    Never raises for a bad *request*: malformed JSON, version
    mismatches, and invalid queries come back as
    ``{"version": 1, "error": ...}`` (see :func:`encode_error`), so a
    server loop can always answer on the same connection.  Store-side
    faults (bugs) still propagate — the serving layer decides whether
    to translate those into ``InternalError`` replies.
    """
    try:
        queries = decode_request(request)
    except WireError as exc:
        return encode_error(exc)
    try:
        return encode_response(store.run_many(queries))
    except (WireError, QueryError) as exc:
        return encode_error(exc)


# ---------------------------------------------------------------------------
# Catalog (series metadata) requests
# ---------------------------------------------------------------------------

#: Catalog operations, mirroring OpenTSDB's ``/api/suggest`` family.
CATALOG_OPS = ("metrics", "tag_keys", "tag_values", "cardinality")

_CATALOG_ENVELOPE_FIELDS = {"version", "catalog"}
_CATALOG_FIELDS = {"op", "metric", "key", "tags"}

#: Which optional fields each op *requires* / *accepts* beyond ``op``.
_CATALOG_SHAPE = {
    "metrics": (frozenset(), frozenset()),
    "tag_keys": (frozenset({"metric"}), frozenset({"metric"})),
    "tag_values": (
        frozenset({"metric", "key"}),
        frozenset({"metric", "key"}),
    ),
    "cardinality": (
        frozenset({"metric"}),
        frozenset({"metric", "tags"}),
    ),
}


@dataclass(frozen=True)
class CatalogRequest:
    """One decoded catalog request.

    ``tags`` is a canonically sorted tuple of pairs so the request is
    hashable — the serving layer keys its catalog cache on
    :meth:`cache_key` directly.
    """

    op: str
    metric: str | None = None
    key: str | None = None
    tags: tuple[tuple[str, str], ...] = ()

    def cache_key(self) -> tuple:
        return (self.op, self.metric, self.key, self.tags)


def encode_catalog_request(
    op: str,
    *,
    metric: str | None = None,
    key: str | None = None,
    tags: Mapping[str, str] | None = None,
) -> dict:
    """A catalog operation as a versioned wire request dict.

    .. code-block:: json

        {"version": 1, "catalog": {"op": "tag_values",
                                   "metric": "air.co2.ppm",
                                   "key": "node"}}
    """
    body: dict = {"op": str(op)}
    if metric is not None:
        body["metric"] = str(metric)
    if key is not None:
        body["key"] = str(key)
    if tags:
        body["tags"] = {str(k): str(v) for k, v in sorted(tags.items())}
    return {"version": WIRE_VERSION, "catalog": body}


def decode_catalog_request(request: str | bytes | Mapping) -> CatalogRequest:
    """A catalog wire request into a :class:`CatalogRequest` (strict).

    Unknown fields, missing required fields, and fields that do not
    belong to the op (``key`` on anything but ``tag_values``, ``tags``
    anywhere but ``cardinality``) are all rejected loudly, same as the
    query codec.
    """
    if isinstance(request, (str, bytes)):
        try:
            request = json.loads(request)
        except json.JSONDecodeError as exc:
            raise WireError(f"request is not valid JSON: {exc}") from None
    if not isinstance(request, Mapping):
        raise WireError("request must be a JSON object")
    version = request.get("version")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} (this codec speaks "
            f"{WIRE_VERSION})"
        )
    unknown = set(request) - _CATALOG_ENVELOPE_FIELDS
    if unknown:
        raise WireError(f"unknown request fields: {sorted(unknown)}")
    body = request.get("catalog")
    if not isinstance(body, Mapping):
        raise WireError("'catalog' must be an object")
    unknown = set(body) - _CATALOG_FIELDS
    if unknown:
        raise WireError(f"unknown catalog fields: {sorted(unknown)}")
    op = body.get("op")
    if op not in CATALOG_OPS:
        raise WireError(
            f"unknown catalog op {op!r} (expected one of {list(CATALOG_OPS)})"
        )
    required, allowed = _CATALOG_SHAPE[op]
    present = set(body) - {"op"}
    missing = required - present
    if missing:
        raise WireError(
            f"catalog op {op!r} is missing required field"
            f"{'s' if len(missing) > 1 else ''} {sorted(missing)}"
        )
    extra = present - allowed
    if extra:
        raise WireError(
            f"catalog op {op!r} does not take field"
            f"{'s' if len(extra) > 1 else ''} {sorted(extra)}"
        )
    metric = body.get("metric")
    if metric is not None and not isinstance(metric, str):
        raise WireError("'metric' must be a string")
    key = body.get("key")
    if key is not None and not isinstance(key, str):
        raise WireError("'key' must be a string")
    tags = body.get("tags", {})
    if not isinstance(tags, Mapping):
        raise WireError("'tags' must be an object of tag filters")
    return CatalogRequest(
        op=op,
        metric=metric,
        key=key,
        tags=tuple(sorted((str(k), str(v)) for k, v in tags.items())),
    )


def execute_catalog_request(store, req: CatalogRequest) -> dict:
    """Answer a decoded catalog request against a store.

    Echoes the operation's identifying fields so a pipelined client can
    correlate replies without trusting line order.  Raises
    (:class:`InvalidName` on a malformed tag key, for example) — the
    caller decides between :func:`encode_error` and propagation.
    """
    body: dict = {"op": req.op}
    if req.op == "metrics":
        body["values"] = store.metrics()
    elif req.op == "tag_keys":
        body["metric"] = req.metric
        body["values"] = store.tag_keys(req.metric)
    elif req.op == "tag_values":
        body["metric"] = req.metric
        body["key"] = req.key
        body["values"] = store.tag_values(req.metric, req.key)
    else:  # cardinality
        body["metric"] = req.metric
        if req.tags:
            body["tags"] = dict(req.tags)
        body["count"] = store.cardinality(req.metric, dict(req.tags) or None)
    return {"version": WIRE_VERSION, "catalog": body}


def handle_catalog_request(store, request: str | bytes | Mapping) -> dict:
    """Decode a catalog wire request, execute it, encode the reply.

    The catalog twin of :func:`handle_request`: never raises for a bad
    request — malformed envelopes, invalid names, and guard-rail
    rejections come back as versioned error responses.
    """
    try:
        req = decode_catalog_request(request)
        return execute_catalog_request(store, req)
    except (WireError, QueryError, InvalidName, CardinalityLimitError) as exc:
        return encode_error(exc)


def decode_catalog_response(response: str | bytes | Mapping) -> list | int:
    """A catalog wire response into its payload (client side).

    Returns the ``values`` list for the listing ops or the ``count``
    integer for ``cardinality``; an in-band error response raises
    :class:`RemoteQueryError` exactly like :func:`decode_response`.
    """
    if isinstance(response, (str, bytes)):
        try:
            response = json.loads(response)
        except json.JSONDecodeError as exc:
            raise WireError(f"response is not valid JSON: {exc}") from None
    if not isinstance(response, Mapping):
        raise WireError("response must be a JSON object")
    if response.get("version") != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {response.get('version')!r}"
        )
    error = response.get("error")
    if error is not None:
        if not isinstance(error, Mapping):
            raise WireError("'error' must be an object")
        raise RemoteQueryError(
            str(error.get("type", "Error")), str(error.get("message", ""))
        )
    body = response.get("catalog")
    if not isinstance(body, Mapping):
        raise WireError("catalog response must carry a 'catalog' object")
    if "count" in body:
        count = body["count"]
        if isinstance(count, bool) or not isinstance(count, int):
            raise WireError(f"'count' must be an integer, got {count!r}")
        return count
    values = body.get("values")
    if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
        raise WireError("catalog response needs 'values' or 'count'")
    return [str(v) for v in values]
