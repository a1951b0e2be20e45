"""Versioned OpenTSDB-style JSON codec for query requests/responses.

The wire format is the stable outer skin of the query engine: dashboards
(or a future HTTP endpoint) speak JSON, the planner speaks
:class:`~repro.tsdb.query.Query`.
The shape mirrors OpenTSDB's ``/api/query``:

.. code-block:: json

    {"version": 2, "queries": [
        {"metric": "air.co2.ppm", "start": 0, "end": 3600,
         "tags": {"city": "trondheim"}, "aggregator": "avg",
         "downsample": "5m-avg", "rate": false, "groupBy": ["node"]}
    ]}

and the response carries one entry per request query, each with its
result series as two *columns* plus scanned-point accounting:

.. code-block:: json

    {"version": 2, "results": [
        {"series": [{"metric": "air.co2.ppm", "tags": {"node": "ctt-01"},
                     "t": "AAAAAAAAAAAsAQAAAAAAAA==",
                     "v": "AAAAAACIeUAAAAAAAAD4fw=="}],
         "scannedPoints": 1234}
    ]}

``t`` is the base64 of the series' timestamps as little-endian ``<i8``,
``v`` that of its values as little-endian ``<f8`` (above: ``0 → 408.5``,
``300 → NaN``).  Timestamps are raw, not deltas — at eight bytes a value
deltas save nothing, and raw columns keep base64 *concatenable*: three
values are 24 bytes, which base64 writes as 32 characters with no
padding, so the first ``k`` values of a column (``k`` a multiple of 3)
are the first ``k * 32 // 3`` characters of its text.  Every NaN is
sent as the one quiet NaN (``0x7ff8000000000000``), so equal results
are equal bytes; ``±inf`` and ``-0.0`` travel as their bits.  An
encoder never walks points in Python: a series costs one ``tobytes``
and one ``base64`` per column.

A serving layer may answer a client that says what it still holds with
less than that — an entry whose ``series`` are replaced by
``"notModified": true`` or by a ``"tail"``, one splice element per
series: ``{"keep": k, "t": ..., "v": ...}`` keeps the held values
``[0, k)`` and appends these; ``{"keep": [a, b], "head": {"t": ...,
"v": ...}, "t": ..., "v": ...}`` keeps the held values ``[a, b)``, puts
the head's values (a multiple of 3) before them and appends these (a
moved window start).  ``k``, ``a`` and ``b`` are multiples of 3; an int
``k`` is the spelling of ``[0, k]`` with no head.  See
:func:`encode_response_json`; a client puts such entries back into the
form above (:func:`splice_column`, string slicing only) before decoding.

Unknown versions and unknown fields are rejected loudly so format drift
cannot pass silently, and a reply is decoded strictly: bad base64, a
column whose length is not whole values, ``t`` and ``v`` of different
lengths and timestamps that do not strictly increase are all
:class:`WireError`.

:func:`handle_request` is the one-call server side: decode →
``run_many`` → encode.  Failures come back as a versioned *error
response* — ``{"version": 2, "error": {"type": ..., "message": ...}}``
— never as an exception, so one malformed query cannot kill a server
connection; :func:`decode_response` surfaces such a payload to clients
as :class:`RemoteQueryError`.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .catalog import BoundedLRU, CardinalityLimitError
from .model import InvalidName
from .query import Query, QueryError, QueryResult

#: Current (and only) wire format version.
WIRE_VERSION = 2


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


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def encode_query(q: Query) -> dict:
    """One query as its wire dict."""
    if not isinstance(q, Query):
        raise WireError(f"cannot encode {type(q).__name__} as a wire query")
    out: dict = {"metric": q.metric, "start": q.start, "end": q.end}
    if q.tags:
        out["tags"] = dict(q.tags)
    out["aggregator"] = q.aggregator
    if q.downsample is not None:
        out["downsample"] = q.downsample.spec()
    if q.rate:
        out["rate"] = True
    if q.group_by:
        out["groupBy"] = list(q.group_by)
    return out


def encode_request(queries: Sequence[Query]) -> dict:
    """A ``run_many`` batch as a versioned wire request dict."""
    return {
        "version": WIRE_VERSION,
        "queries": [encode_query(q) for q in queries],
    }


#: Decoded queries kept by :func:`decode_query`: four times the panels
#: a serving store keeps state for (``serve.cache.HELD_PANELS``).
INTERNED_QUERIES = 1024

_interned: BoundedLRU = BoundedLRU(INTERNED_QUERIES)

#: JSON's scalar types, each kept apart from the others in a key.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _typed_key(v):
    """``v`` — parsed JSON — as a hashable key in which every value
    carries its exact type: ``1``, ``1.0`` and ``true`` are equal in
    Python but three different keys here.  An object keeps its key
    order, and nested objects and lists their nesting.  Raises
    :class:`TypeError` for a value of any other type (a tuple, a
    mapping other than ``dict``)."""
    t = type(v)
    if t is dict:
        values = v.values()
    elif t is list:
        values = v
    elif t in _SCALARS:
        return t, v
    else:
        raise TypeError(f"not a JSON value: {t.__name__}")
    # scalars inline, as (type, value): one call per object or list
    typed = tuple([(type(x), x) if type(x) in _SCALARS else _typed_key(x)
                   for x in values])
    return (t, tuple(v), typed) if t is dict else (t, typed)


def decode_query(obj: Mapping) -> Query:
    """One wire dict back into a planner query (strict field checking).

    The values go to :class:`Query` as JSON gave them: it owns what a
    valid query is, and its :class:`QueryError` comes back as
    :class:`WireError`.

    Decoded queries are interned: a dict equal, type for type, to one
    decoded before returns that same :class:`Query` (immutable, so
    shareable) without validating it again — a re-polled panel costs one
    key and one look-up.  The key is the dict's values with their exact
    JSON types, in key order, nested lists and objects included; a dict
    with a value of any other type (or nested too deep to key) is
    decoded uncached.  Only queries that decoded are kept (the last
    :data:`INTERNED_QUERIES`), so a refused dict is refused every
    time."""
    try:
        key = _typed_key(obj)
    except (TypeError, RecursionError):
        return _decode_query(obj)
    q = _interned.use(key)
    if q is None:
        q = _decode_query(obj)
        _interned.put(key, q)
    return q


def _decode_query(obj: Mapping) -> Query:
    if not isinstance(obj, Mapping):
        raise WireError(f"query must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _QUERY_FIELDS
    if unknown:
        raise WireError(f"unknown query fields: {sorted(unknown)}")
    for field in ("metric", "start", "end"):
        if field not in obj:
            raise WireError(f"query is missing required field {field!r}")
    try:
        return Query(
            metric=obj["metric"],
            start=obj["start"],
            end=obj["end"],
            tags=obj.get("tags", {}),
            aggregator=obj.get("aggregator", "avg"),
            downsample=obj.get("downsample"),
            rate=obj.get("rate", False),
            group_by=obj.get("groupBy", ()),
        )
    except QueryError as exc:
        raise WireError(str(exc)) from None


def decode_request(request: str | bytes | Mapping) -> list[Query]:
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

#: The one NaN a column carries, whatever NaN the store computed.
_NAN = np.float64(np.nan)

#: Base64 characters per three values (24 bytes, no padding).
_GROUP_CHARS = 32


def columns(timestamps: np.ndarray, values: np.ndarray) -> tuple[bytes, bytes]:
    """Two columns as little-endian bytes: ``<i8`` timestamps and
    ``<f8`` values, every NaN the canonical one."""
    nan = np.isnan(values)
    if nan.any():
        values = np.where(nan, _NAN, values)
    return (
        np.asarray(timestamps, dtype="<i8").tobytes(),
        np.asarray(values, dtype="<f8").tobytes(),
    )


def encode_columns(
    timestamps: np.ndarray, values: np.ndarray
) -> tuple[bytes, bytes]:
    """The ``t`` and ``v`` text of two columns: the base64 of
    :func:`columns`, ASCII bytes."""
    t, v = columns(timestamps, values)
    return base64.b64encode(t), base64.b64encode(v)


def _series_head(s) -> dict:
    return {"metric": s.metric, "tags": dict(sorted(s.group_tags.items()))}


def _encode_series(s) -> dict:
    t, v = encode_columns(s.timestamps, s.values)
    return {**_series_head(s), "t": t.decode(), "v": v.decode()}


def encode_response(results: Sequence[QueryResult]) -> dict:
    """``run_many`` output as a versioned wire response dict."""
    entries = [
        {
            "series": [_encode_series(s) for s in res.series],
            "scannedPoints": int(res.scanned_points),
        }
        for res in results
    ]
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


# -- reply text ------------------------------------------------------------
#
# The same responses as JSON *text*, without building the dicts:
# ``json.dumps(encode_response(...), allow_nan=False).encode()`` is the
# reference, and since base64 needs no JSON escaping a column goes into
# the text as it comes out of ``b64encode``.


def _series_parts(s, cut: tuple[int, int, int] | None = None) -> list[bytes]:
    """Pieces of a series' text or, with ``cut = (a, b, h)``, of its
    splice element: the series' first ``h`` points as the head, the held
    run ``[a, b)`` kept, and its points from ``h + b - a`` on as the
    tail — one column encode for head and tail together, since a head
    of whole groups of three is whole base64 groups."""
    ts, vals = s.timestamps, s.values
    if cut is None:
        t, v = encode_columns(ts, vals)
        head = json.dumps(_series_head(s)).encode()
        return [head[:-1], b', "t": "', t, b'", "v": "', v, b'"}']
    a, b, h = cut
    rest = h + b - a
    if not a and not h:
        t, v = encode_columns(ts[rest:], vals[rest:])
        return [b'{"keep": %d, "t": "' % b, t, b'", "v": "', v, b'"}']
    t, v = encode_columns(
        np.concatenate((ts[:h], ts[rest:])), np.concatenate((vals[:h], vals[rest:]))
    )
    c = h // 3 * _GROUP_CHARS
    return [
        b'{"keep": [%d, %d], "head": {"t": "' % (a, b), t[:c], b'", "v": "',
        v[:c], b'"}, "t": "', t[c:], b'", "v": "', v[c:], b'"}',
    ]


def encode_response_json(
    results: Sequence[QueryResult],
    *,
    held: Sequence[str | None] | None = None,
    validator=None,
    tail=None,
    forms: list | None = None,
) -> bytes:
    """``run_many`` output as the JSON text of its wire response.

    ``held`` makes the reply conditional: aligned with ``results``, it
    names per entry the ``series`` array the client says it still holds
    (None: nothing).  ``validator`` maps a result to the name of its
    series' content (a result iterates its series), and the reply gains
    ``"validators"``, aligned with ``"results"``.  An entry whose
    validator equals what is held is answered ``"notModified": true`` in
    place of its ``"series"``;
    otherwise ``tail`` (if given) maps ``(series, held validator)`` to
    one cut ``(a, b, h)`` per series when the series are spliced from
    the held ones — each series' points ``[h, h + b - a)`` are the held
    series' ``[a, b)``; ``a``, ``b`` and ``h`` are multiples of 3 — and
    the entry carries ``"tail"``: per series, its first ``h`` points as
    the ``"head"`` and its points from ``h + b - a`` on as ``t``/``v``,
    with ``"keep": [a, b]``, or ``"keep": b`` and no head when ``a`` and
    ``h`` are 0 (a grown series).  Otherwise it is the full entry.
    ``scannedPoints`` is sent in every form.  ``forms``, if given,
    receives each entry's form: ``"full"``, ``"not_modified"`` or
    ``"tail"``.
    """
    out = [b'{"version": %d, "results": [' % WIRE_VERSION]
    validators = []
    for i, res in enumerate(results):
        if i:
            out.append(b", ")
        out.append(b"{")
        form, cuts = "full", None
        if held is not None:
            name = validator(res)
            validators.append(name)
            if name == held[i]:
                form = "not_modified"
            elif tail is not None and held[i] is not None:
                cuts = tail(res.series, held[i])
                if cuts is not None:
                    form = "tail"
        if form == "not_modified":
            out.append(b'"notModified": true')
        else:
            out.append(b'"tail": [' if cuts is not None else b'"series": [')
            for j, s in enumerate(res.series):
                if j:
                    out.append(b", ")
                out += _series_parts(s, None if cuts is None else cuts[j])
            out.append(b"]")
        if forms is not None:
            forms.append(form)
        out.append(b', "scannedPoints": %d}' % int(res.scanned_points))
    out.append(b"]")
    if held is not None:
        out.append(b', "validators": %s' % json.dumps(validators).encode())
    out.append(b"}")
    # one join: the reply is the only large buffer made
    return b"".join(out)


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
    return b"".join((memoryview(response)[:-1], b', "id": ', id_json, b"}\n"))


# -- columns on the client -------------------------------------------------


def splice_column(
    held: str, keep: int | Sequence[int], tail: str, head: str = ""
) -> str | None:
    """The text of ``head``'s values, then the held column's values
    ``[a, b)`` (``keep`` is ``[a, b]``, or an int ``b`` with ``a = 0``),
    then the values ``tail`` is the text of — exactly what encoding the
    whole column would give, and no decode — or None unless ``a`` and
    ``b`` are multiples of 3 with ``0 <= a <= b`` and ``b`` no larger
    than what ``held`` holds, and ``head`` is whole groups of 3 values."""
    a, b = (0, keep) if isinstance(keep, int) else keep
    lo, hi = a // 3 * _GROUP_CHARS, b // 3 * _GROUP_CHARS
    if a % 3 or b % 3 or len(head) % _GROUP_CHARS or not 0 <= lo <= hi <= len(held):
        return None
    return head + held[lo:hi] + tail


@dataclass(frozen=True)
class WireSeries:
    """One decoded result series (client-side view, read-only arrays)."""

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

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self):
        return iter(self.series)


def _column(text, dtype: str, field: str) -> np.ndarray:
    """One column's text as a read-only array (strict)."""
    if not isinstance(text, str):
        raise WireError(f"{field!r} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise WireError(f"{field!r} is not base64: {exc}") from None
    if len(raw) % 8:
        raise WireError(
            f"{field!r} holds {len(raw)} bytes, not whole 8-byte values"
        )
    return np.frombuffer(raw, dtype)


def decode_series(series: Sequence[Mapping]) -> tuple[WireSeries, ...]:
    """One entry's ``series`` array as numpy-backed series."""
    out = []
    for s in series:
        if not isinstance(s, Mapping):
            raise WireError("a series must be an object")
        ts = _column(s.get("t"), "<i8", "t")
        vals = _column(s.get("v"), "<f8", "v")
        if ts.shape != vals.shape:
            raise WireError(
                f"'t' holds {ts.shape[0]} values and 'v' {vals.shape[0]}"
            )
        if not (ts[1:] > ts[:-1]).all():
            raise WireError("'t' is not strictly increasing")
        ts.setflags(write=False)
        vals.setflags(write=False)
        out.append(WireSeries(
            metric=str(s.get("metric", "")),
            tags=dict(s.get("tags", {})),
            timestamps=ts,
            values=vals,
        ))
    return tuple(out)


def decode_response(response: str | bytes | Mapping) -> list[WireResult]:
    """A wire response back into numpy-backed client results."""
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
    ``{"version": 2, "error": ...}`` (see :func:`encode_error`), so a
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
    hashable — the serving layer keys its catalog cache on the request
    itself.
    """

    op: str
    metric: str | None = None
    key: str | None = None
    tags: tuple[tuple[str, str], ...] = ()


def encode_catalog_request(
    op: str,
    *,
    metric: str | None = None,
    key: str | None = None,
    tags: Mapping[str, str] | None = None,
) -> dict:
    """A catalog operation as a versioned wire request dict.

    .. code-block:: json

        {"version": 2, "catalog": {"op": "tag_values",
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
    # refused, as a query's tags are: never coerced to some other filter
    if not isinstance(tags, Mapping) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in tags.items()
    ):
        raise WireError(
            f"'tags' must be an object of tag filters, strings to strings: {tags!r}"
        )
    return CatalogRequest(
        op=op, metric=metric, key=key, tags=tuple(sorted(tags.items()))
    )


def execute_catalog_request(store, req: CatalogRequest) -> dict:
    """Answer a decoded catalog request against a store.

    Echoes the operation's identifying fields, so a reply names what it
    answers.  Raises
    (:class:`InvalidName` on a malformed tag key, for example) — the
    caller decides between :func:`encode_error` and propagation.
    """
    catalog = store.catalog
    body: dict = {"op": req.op}
    if req.op == "metrics":
        body["values"] = catalog.metrics()
    elif req.op == "tag_keys":
        body["metric"] = req.metric
        body["values"] = catalog.tag_keys(req.metric)
    elif req.op == "tag_values":
        body["metric"] = req.metric
        body["key"] = req.key
        body["values"] = catalog.tag_values(req.metric, req.key)
    else:  # cardinality
        body["metric"] = req.metric
        if req.tags:
            body["tags"] = dict(req.tags)
        body["count"] = catalog.cardinality(req.metric, dict(req.tags) or None)
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

