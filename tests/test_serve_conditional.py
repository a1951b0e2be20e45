"""Conditional replies: the client says what it holds, the server
answers *not modified* or *the tail* (with a head, for a moved start),
and nobody can tell.

- **equivalence** (hypothesis, the op grammar of
  ``test_property_reply_lines_equal_dumps_of_the_dict_codec``, over
  ``TSDB`` under the full store stack):
  whatever is appended, written late, retained away, churned, repeated
  or slid between requests, the dict a holding :class:`QueryClient`
  returns is ``wire.handle_request`` on the innermost store — as a dict
  and as ``json.dumps`` bytes, so the column text survives the splice —
  for a long-lived client, one that reconnects before every request,
  one whose held table evicts, and one whose replies go through
  ``wire.decode_response``, whose arrays are the inner store's bit for
  bit — and no validator a client holds ever names two texts;
- **costs as counts**: an unchanged 12-panel dashboard is answered in
  under 2 KB with nothing encoded, digested or decoded and no query
  built on the server or encoded by the client, a grown one in
  proportion to the delta and with no base64 decoded, a slid one with
  its heads — one small encode per series, nothing decoded, the same
  bytes digested over 6 h as over 24 h — and a cold reply costs one
  column encode per series and no call per point;
- **a server that lies** gets a :class:`WireError` — from the client,
  with an empty held table and a closed connection, when the reply does
  not fit what was sent; from the decoder when its columns are bad —
  and the client works afterwards;
- the refresher's panel table evicts, the envelope fields are checked.
"""

import base64
import contextlib
import json
import socket
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.cache as cache_module
import repro.serve.client as client_module
from repro.replication import ReplicatedStore
from repro.serve import CachingStore, QueryClient
from repro.serve.cache import BoundedLRU, entry_tail, entry_validator
from repro.tsdb import (
    BatchBuilder,
    DurableStore,
    Query,
    QueryError,
    SeriesKey,
    TSDB,
    wire,
)
from repro.tsdb.interface import StoreWrapper
from test_serve import _VALUES, _raw_lines, _wall_panels, live_server
from test_tsdb_wire import bits


def _reference(inner, queries):
    """The reply a raw-socket client would have parsed, ``id`` aside:
    the dict codec on the innermost store."""
    return wire.handle_request(inner, wire.encode_request(queries))


def _same_decoded(got, want):
    """Decoded results ``got`` are the store's results ``want``: counts,
    labels, and both columns bit for bit (−0.0 and ±inf included, NaN
    canonical)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.scanned_points == w.scanned_points
        assert len(g.series) == len(w.series)
        for a, b in zip(g.series, w.series):
            assert (a.metric, a.tags) == (b.metric, b.group_tags)
            assert a.timestamps.dtype == np.int64
            assert a.timestamps.tobytes() == b.timestamps.astype("<i8").tobytes()
            assert a.values.view("<u8").tolist() == bits(b.values)
            assert not (a.timestamps.flags.writeable or a.values.flags.writeable)


@contextlib.contextmanager
def _stack(inner):
    """``DurableStore(ReplicatedStore(inner))``: the stack a server puts
    its ``CachingStore`` on, journaling to a scratch WAL."""
    with tempfile.TemporaryDirectory() as scratch:
        durable = DurableStore(ReplicatedStore(inner), Path(scratch) / "wal.seg")
        try:
            yield durable
        finally:
            durable.close()


# -- equivalence ------------------------------------------------------------

#: The op grammar of the raw-socket property test, its steady state
#: alone (append, ask again) — where the tail is the common answer rather
#: than one in forty — and a sliding wall (the start a few seconds on,
#: the end sometimes too), where a head splice is.  Each request draws
#: whether it still sends the ignored ``refresh`` field.
_OPS = {
    "everything": (("append",) * 4 + ("request",) * 6
                   + ("late", "retention", "churn", "repeat"),
                   (True, True, False)),
    "steady": (("append",) * 4 + ("request",) * 4 + ("repeat",) * 2,
               (True,)),
    "sliding": (("append",) * 3 + ("slide",) * 5 + ("repeat",) * 2,
                (True,)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@pytest.mark.parametrize("mix", list(_OPS),
                         ids=lambda mix: f"single-{mix}")  # the kept ids
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_property_holding_clients_return_the_dict_codec(mix, data):
    """... and no validator a client holds ever names two texts."""
    ops, refreshes = _OPS[mix]
    draw = data.draw
    inner = TSDB()
    now, nodes, window, picks, last = 0, ["a", "b"], (0, 0), [], None
    turn = 0
    names: dict = {}  # validator -> the series text it named

    def held_names(client):
        for held in client._held.values():
            text = json.dumps(held.series, allow_nan=False)
            assert names.setdefault(held.validator, text) == text

    def exchange(clients, decoding, queries, refresh):
        nonlocal turn
        turn += 1
        # whoever goes first takes the refresher's delta; the others
        # find the panel already advanced past what they hold
        for k in range(len(clients)):
            name, client = clients[(turn + k) % len(clients)]
            if name == "reconnecting":
                client.close()
            got = client.request(queries, refresh=refresh)
            assert got.pop("id") == client._next_id
            want = _reference(inner, queries)
            assert got == want, name
            assert (json.dumps(got, allow_nan=False)
                    == json.dumps(want, allow_nan=False)), name
            held_names(client)
        want = wire.handle_request(inner, wire.encode_request(queries))
        if "error" in want:
            with pytest.raises(wire.RemoteQueryError):
                wire.decode_response(decoding.request(queries, refresh=refresh))
        else:
            _same_decoded(
                wire.decode_response(decoding.request(queries, refresh=refresh)),
                inner.run_many(queries))

    with _stack(inner) as stack, \
            live_server(stack, cache_capacity=3) as server:
        host, port = server.address
        forgetful = QueryClient(host, port)
        forgetful._held = BoundedLRU(2)  # a request's four panels never fit
        clients = [("holding", QueryClient(host, port)),
                   ("reconnecting", QueryClient(host, port)),
                   ("forgetful", forgetful)]
        decoding = QueryClient(host, port)
        try:
            if mix == "sliding":  # five minutes for the wall to slide over
                for now in range(0, 300, 3):
                    for node in nodes:
                        stack.put("m", now, float(now % 7), {"node": node})
            for _ in range(draw(st.integers(3, 20))):
                op = draw(st.sampled_from(ops))
                if op == "append":
                    for _ in range(draw(st.integers(1, 6))):
                        now += draw(st.integers(1, 9))
                        stack.put("m", now, draw(_VALUES),
                                  {"node": draw(st.sampled_from(nodes))})
                elif op == "late":  # out of order, or a duplicate instant
                    stack.put("m", draw(st.integers(0, now)), draw(_VALUES),
                              {"node": draw(st.sampled_from(nodes))})
                elif op == "retention":
                    stack.delete_before(draw(st.integers(0, now + 1)))
                elif op == "churn":
                    if draw(st.booleans()):
                        nodes.append(f"n{len(nodes)}")
                        now += 1
                        stack.put("m", now, draw(_VALUES),
                                  {"node": nodes[-1]})
                    else:  # a whole series goes away
                        stack.delete_series_before(
                            SeriesKey.make(
                                "m", {"node": draw(st.sampled_from(nodes))}),
                            now + 1)
                elif op == "slide" and last is not None:
                    start = window[0] + draw(st.integers(1, 9))
                    window = (start, max(start, window[1] + draw(
                        st.sampled_from((0, 0, 1, 9)))))
                    pool = _wall_panels(*window)
                    last = ([pool[i] for i in picks], last[1])
                    exchange(clients, decoding, *last)
                elif op == "request" or last is None:
                    start = draw(st.sampled_from(  # mostly: stay put
                        (window[0], window[0], 0, max(0, now - 60),
                         max(0, (now - 60) // 10 * 10))))
                    window = (start, max(start, window[1], now + draw(
                        st.integers(0, 5))))
                    pool = _wall_panels(*window)
                    if not picks or draw(st.integers(0, 3)) == 0:
                        picks = draw(st.lists(
                            st.integers(0, len(pool) - 1), max_size=4))
                    last = ([pool[i] for i in picks],
                            draw(st.sampled_from(refreshes)))
                    exchange(clients, decoding, *last)
                else:  # the identical request again
                    exchange(clients, decoding, *last)
            assert len(forgetful._held) <= 2
        finally:
            for _, client in clients:
                client.close()
            decoding.close()


# -- costs as counts --------------------------------------------------------

METRICS = ("air.co2.ppm", "air.no2.ugm3", "air.pm10.ugm3", "air.temp.c")
NODES = tuple(f"ctt-{i:02d}" for i in range(9))
MINUTE = 60
HISTORY_MINUTES = 24 * 60


def _minute(t: int, metrics=METRICS, nodes=NODES):
    builder = BatchBuilder()
    for m, metric in enumerate(metrics):
        for n, node in enumerate(nodes):
            builder.add_series(
                metric, np.array([t], np.int64),
                np.array([400.0 + m + n / 8 + (t // MINUTE) % 7]),
                {"city": "trondheim", "node": node})
    return builder.build()


def _dashboard(start: int, end: int) -> list[Query]:
    """Twelve panels, the shape of the e2e wall: 44 series, ~12 k dps."""
    city = {"city": "trondheim"}
    out = []
    for metric in METRICS:
        out.append(Query(metric, start, end, tags=city, downsample="5m-avg"))
        out.append(Query(metric, start, end, tags=city, aggregator="dev",
                         downsample="10m-max"))
        out.append(Query(metric, start, end, tags=city, downsample="5m-avg",
                         group_by=("node",)))
    return out


@pytest.fixture(scope="module")
def history():
    """A day of minutes for every node, as one batch per store."""
    builder = BatchBuilder()
    ts = np.arange(HISTORY_MINUTES, dtype=np.int64) * MINUTE
    for m, metric in enumerate(METRICS):
        for n, node in enumerate(NODES):
            builder.add_series(
                metric, ts, 400.0 + m + n / 8 + (ts // MINUTE) % 7,
                {"city": "trondheim", "node": node})
    return builder.build()


class _Tap:
    """The client's socket file, remembering every reply line."""

    def __init__(self, file) -> None:
        self.file, self.lines = file, []

    def readline(self) -> bytes:
        self.lines.append(self.file.readline())
        return self.lines[-1]

    def close(self) -> None:
        self.file.close()


class _Costs:
    """Counting wrappers around what an unchanged reply must not do."""

    def __init__(self, monkeypatch) -> None:
        self.series_encoded = 0  # column encodes: a series or a tail
        self.columns_read = 0  # column bytes made: to encode or digest
        self.bytes_digested = 0
        self.decodes = 0
        self.queries_built = 0  # Query objects constructed
        self.queries_encoded = 0  # wire.encode_query calls
        real_encode_columns = wire.encode_columns
        real_columns = wire.columns
        real_blake2b = cache_module.blake2b
        real_b64decode = base64.b64decode
        real_post_init = Query.__post_init__
        real_encode_query = wire.encode_query

        def encode_columns(ts, vals):
            self.series_encoded += 1
            return real_encode_columns(ts, vals)

        def columns(ts, vals):
            self.columns_read += 1
            return real_columns(ts, vals)

        costs = self

        class blake2b:  # noqa: N801 - stands in for hashlib's
            """Counts every byte digested, updates included."""

            def __init__(self, data=b"", **kwargs):
                costs.bytes_digested += memoryview(data).nbytes
                self._digest = real_blake2b(data, **kwargs)

            def update(self, data):
                costs.bytes_digested += memoryview(data).nbytes
                self._digest.update(data)

            def digest(self):
                return self._digest.digest()

            def hexdigest(self):
                return self._digest.hexdigest()

        def b64decode(text, **kwargs):
            self.decodes += 1
            return real_b64decode(text, **kwargs)

        def post_init(q):
            self.queries_built += 1
            real_post_init(q)

        def encode_query(q):
            self.queries_encoded += 1
            return real_encode_query(q)

        monkeypatch.setattr(wire, "encode_columns", encode_columns)
        monkeypatch.setattr(wire, "columns", columns)
        monkeypatch.setattr(cache_module, "blake2b", blake2b)
        monkeypatch.setattr(base64, "b64decode", b64decode)
        monkeypatch.setattr(Query, "__post_init__", post_init)
        monkeypatch.setattr(wire, "encode_query", encode_query)

    def reset(self) -> None:
        self.series_encoded = self.columns_read = self.bytes_digested = 0
        self.decodes = self.queries_built = self.queries_encoded = 0


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


class TestCosts:
    def test_unchanged_dashboard_costs_look_ups_not_a_reply(
            self, history, monkeypatch):
        inner = TSDB()
        inner.put_batch(history)
        end = (HISTORY_MINUTES - 1) * MINUTE
        queries = _dashboard(0, end)
        series = 4 * (1 + 1 + len(NODES))
        costs = _Costs(monkeypatch)
        with live_server(inner) as server, \
                QueryClient(*server.address) as client:
            tap = client._file = _Tap(client._file)
            first = client.request(queries)
            full_line = tap.lines[-1]
            assert len(full_line) > 200_000
            # one column encode per series; its bytes made once to
            # encode and once to digest
            assert costs.series_encoded == series
            assert costs.columns_read == 2 * series
            assert costs.decodes == 0  # ``request`` decodes nothing
            assert costs.queries_encoded == 12  # each kept on its query
            assert server.stats()["replies"] == {
                "full": 12, "not_modified": 0, "tail": 0,
                "bytes": len(full_line)}

            costs.reset()
            before = server.stats()
            second = client.request(queries)
            line = tap.lines[-1]
            after = server.stats()
            assert len(line) < 2_000 and b'"series"' not in line
            assert line.count(b'"notModified": true') == 12
            assert costs.series_encoded == costs.columns_read == 0
            # each entry's validator is kept on its cached result, each
            # decoded query interned, each query's wire dict kept
            assert costs.bytes_digested == 0
            assert costs.queries_built == 0
            assert costs.queries_encoded == 0
            assert _delta(after["cache"], before["cache"]) == {
                "hits": 12, "misses": 0, "invalidated": 0, "evicted": 0,
                "skipped": 0}
            assert _delta(after["replies"], before["replies"]) == {
                "full": 0, "not_modified": 12, "tail": 0, "bytes": len(line)}

            # nobody can tell: fresh envelope and entries, shared series
            assert first.pop("id") + 1 == second.pop("id")
            assert first == second and first is not second
            assert "validators" not in second
            for a, b in zip(first["results"], second["results"]):
                assert a is not b and a["series"] is b["series"]
                assert "notModified" not in b

            # a request that says nothing gets the bytes it always got
            payload = wire.encode_request(queries)
            (raw,) = _raw_lines(server.address,
                                json.dumps(payload).encode() + b"\n")
            assert raw == json.dumps(
                wire.handle_request(inner, payload),
                allow_nan=False).encode() + b"\n"
            assert b"validators" not in raw
            assert json.loads(raw) == second

            # the reply put back together decodes to the store's results
            _same_decoded(wire.decode_response(second), inner.run_many(queries))

    def test_grown_dashboard_costs_its_tail(self, history, monkeypatch):
        inner = TSDB()
        inner.put_batch(history)
        end = (HISTORY_MINUTES - 1) * MINUTE
        costs = _Costs(monkeypatch)
        with live_server(inner) as server, \
                QueryClient(*server.address) as client:
            tap = client._file = _Tap(client._file)
            client.request(_dashboard(0, end))
            full_line = tap.lines[-1]
            held = client.request(_dashboard(0, end))
            assert tap.lines[-1].count(b'"notModified": true') == 12

            # one more minute, for one node of one metric
            end += MINUTE
            inner.put_batch(_minute(end, METRICS[:1], NODES[:1]))
            costs.reset()
            before = server.stats()
            grown = client.request(_dashboard(0, end))
            line = tap.lines[-1]
            after = server.stats()
            assert len(line) < 0.05 * len(full_line)
            assert _delta(after["replies"], before["replies"]) == {
                "full": 0, "not_modified": 9, "tail": 3, "bytes": len(line)}
            assert _delta(after["refresh"], before["refresh"])[
                "incremental_runs"] == 12
            # only the three panels of that metric were encoded: a tail
            # per series, and the client spliced them as text, decoding
            # nothing
            assert costs.series_encoded == 1 + 1 + len(NODES)
            assert costs.decodes == 0

            want = _reference(inner, _dashboard(0, end))
            assert grown.pop("id") and grown == want
            assert json.dumps(grown) == json.dumps(want)
            # new series dicts for the three panels that came as a tail,
            # and only those; what was handed out before is left as it was
            rebuilt = changed = 0
            for old, new in zip(held["results"], grown["results"]):
                if old["series"] is new["series"]:
                    continue
                for a, b in zip(old["series"], new["series"]):
                    rebuilt += 1
                    assert a is not b
                    if a != b:
                        changed += 1
                        for c in "tv":
                            assert (len(base64.b64decode(b[c]))
                                    == len(base64.b64decode(a[c])) + 8)
            assert rebuilt == 1 + 1 + len(NODES)
            # the two ungrouped series and the one node's own
            assert changed == 3

            # every minute grown onto what is held decodes to the
            # store's results
            end += MINUTE
            inner.put_batch(_minute(end))
            decoded = wire.decode_response(
                client.request(_dashboard(0, end)))
            _same_decoded(decoded, inner.run_many(_dashboard(0, end)))

    def _slid(self, history, monkeypatch, start, moves):
        """A holding client asks the wall over ``[start, end]``, then with
        its start moved on by each of ``moves`` in turn: per move, the
        reply line, the costs and the reply forms it took, and the full
        line of the first ask."""
        inner = TSDB()
        inner.put_batch(history)
        end = (HISTORY_MINUTES - 1) * MINUTE
        costs = _Costs(monkeypatch)
        steps = []
        with live_server(inner) as server, \
                QueryClient(*server.address) as client:
            tap = client._file = _Tap(client._file)
            client.request(_dashboard(start, end))
            full_line = tap.lines[-1]
            for move in moves:
                start += move
                costs.reset()
                before = server.stats()
                got = client.request(_dashboard(start, end))
                forms = _delta(server.stats()["replies"], before["replies"])
                steps.append((tap.lines[-1], dict(vars(costs)), forms))
                want = _reference(inner, _dashboard(start, end))
                assert got.pop("id") and got == want
                assert json.dumps(got) == json.dumps(want)
            # what is held after the moves decodes to the store's results
            _same_decoded(wire.decode_response(client.request(
                _dashboard(start, end))), inner.run_many(_dashboard(start, end)))
        return full_line, steps

    def test_slid_dashboard_costs_its_head(self, history, monkeypatch):
        """A start moved one minute inside its buckets costs the wall's
        head: each series' head bucket and the two values the kept run
        leaves off the base64 grid, encoded once per series, spliced by
        the client as text, and named by a digest of its edges alone —
        the same bytes over a quarter of the history as over all of
        it."""
        series = 4 * (1 + len(NODES))  # the avg and per-node panels
        digested = []
        for start in (0, 18 * 60 * MINUTE):  # a day, and its last 6 h
            full_line, [(line, costs, forms)] = self._slid(
                history, monkeypatch, start, [MINUTE])
            if not start:
                assert len(line) < 0.05 * len(full_line)
            # nothing in full: the avg and per-node panels' head buckets
            # moved, and the dev panels' came out the same — held text,
            # not modified
            assert forms == {"full": 0, "not_modified": 4, "tail": 8,
                             "bytes": len(line)}
            assert line.count(b'"keep": [3, ') == series
            assert costs["series_encoded"] == series
            assert costs["decodes"] == 0
            digested.append(costs["bytes_digested"])
        assert digested[0] == digested[1] > 0

    def test_a_move_onto_the_grid_answers_off_grid_cuts_in_full(
            self, history, monkeypatch):
        """A start moved onto the 5-minute grid, then 14 minutes on (15
        minutes, off the 10-minute grid): the 5-minute panels keep the
        held run from their third bucket with no head; the dev panels
        drop two held buckets for a one-bucket head — not whole groups
        of three, so their series go in full."""
        _, [_, (line, costs, forms)] = self._slid(
            history, monkeypatch, 0, [MINUTE, 14 * MINUTE])
        assert forms == {"full": 4, "not_modified": 0, "tail": 8,
                         "bytes": len(line)}
        assert line.count(b'"keep": [3, ') == 4 * (1 + len(NODES))
        assert line.count(b'"head": {"t": "", "v": ""}') == 4 * (1 + len(NODES))
        assert costs["decodes"] == 0

    def test_a_cold_reply_costs_no_call_per_point(self, history):
        """Encoding a cold 12-panel reply makes the same calls over a
        day of points as over a quarter of one: nothing per point."""
        inner = TSDB()
        inner.put_batch(history)
        end = (HISTORY_MINUTES - 1) * MINUTE

        def calls(start) -> int:
            results = inner.run_many(_dashboard(start, end))
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event in ("call", "c_call")

            sys.setprofile(profile)
            try:
                wire.encode_response_json(
                    results, held=[None] * len(results),
                    validator=entry_validator)
            finally:
                sys.setprofile(None)
            assert sum(len(s) for r in results for s in r.series) > 500
            return count

        calls(0)  # first use: whatever is set up once
        assert calls(0) == calls(end * 3 // 4)


# -- a server that lies -----------------------------------------------------

class _ScriptedServer:
    """Answers each request line with the next scripted reply (a dict;
    the request's ``id`` is echoed), recording what was asked."""

    def __init__(self, *replies: dict) -> None:
        self.replies = list(replies)
        self.requests: list[dict] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10)
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.replies:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as file:
                while self.replies:
                    line = file.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    self.requests.append(request)
                    reply = {**self.replies.pop(0), "id": request["id"]}
                    conn.sendall(json.dumps(reply).encode() + b"\n")

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


def _b64(values, dtype) -> str:
    return base64.b64encode(np.array(values, dtype).tobytes()).decode()


def _series(n: int, **columns) -> dict:
    """A series of ``n`` points, ``t == v == 0 .. n-1``, or the columns
    given, as a server would send them."""
    return {"metric": "m", "tags": {},
            "t": _b64(range(n), "<i8"), "v": _b64(range(n), "<f8"),
            **columns}


def _tail(keep, t=(), v=()) -> dict:
    return {"keep": keep, "t": _b64(t, "<i8"), "v": _b64(v, "<f8")}


def _head_tail(keep, head=((), ()), t=(), v=()) -> dict:
    """A splice element with a head: ``head`` is its (t, v) values."""
    return {"keep": keep, "head": {"t": _b64(head[0], "<i8"),
                                   "v": _b64(head[1], "<f8")},
            "t": _b64(t, "<i8"), "v": _b64(v, "<f8")}


def _reply(*entries: dict, validators) -> dict:
    return {"version": wire.WIRE_VERSION, "results": list(entries),
            "validators": validators}


_FULL = _reply({"series": [_series(3)], "scannedPoints": 3},
               validators=["v1"])


def _full(*series: dict) -> dict:
    return _reply({"series": list(series), "scannedPoints": 3},
                  validators=["v9"])


@pytest.mark.parametrize("hold_first, lie, found_by", [
    (False, _reply({"notModified": True, "scannedPoints": 0},
                   validators=["v1"]), "client"),
    (True, _reply({"notModified": True, "scannedPoints": 0},
                  validators=["someone-else's"]), "client"),
    (False, _reply({"tail": [_tail(0)], "scannedPoints": 0},
                   validators=["v2"]), "client"),
    (True, _reply({"tail": [_tail(6, [9], [9.0])], "scannedPoints": 1},
                  validators=["v2"]), "client"),
    (True, _reply({"tail": [_tail(True, [9], [9.0])], "scannedPoints": 1},
                  validators=["v2"]), "client"),
    (True, _reply({"tail": [{**_tail(3, [9], [9.0]), "v": "!!!!!!!!!!!="}],
                   "scannedPoints": 1}, validators=["v2"]), "decoder"),
    (True, _reply({"tail": [], "scannedPoints": 1}, validators=["v2"]), "client"),
    (True, _reply({"tail": [_tail(3)] * 2, "scannedPoints": 1},
                  validators=["v2"]), "client"),
    (True, _reply({"scannedPoints": 1}, validators=["v2"]), "client"),
    (True, _reply({"series": [_series(3)], "scannedPoints": 3},
                  validators=[]), "client"),
    (True, _reply({"series": [_series(3)], "scannedPoints": 3},
                  validators=[7]), "client"),
    (True, {"version": wire.WIRE_VERSION,
            "results": [{"series": [_series(3)], "scannedPoints": 3}]}, "client"),
    (False, _full(_series(3, t="AAAA AAAAAAA")), "decoder"),
    (True, _full(_series(3, v=base64.b64encode(bytes(20)).decode())), "decoder"),
    (False, _full(_series(3, v=_b64([1.0, 2.0], "<f8"))), "decoder"),
    (True, _full(_series(3, t=_b64([0, 2, 2], "<i8"))), "decoder"),
    (True, _reply({"tail": [_tail(2, [9], [9.0])], "scannedPoints": 1},
                  validators=["v2"]), "client"),
    (True, _reply({"tail": [_tail(3, [9, 10], [9.0])], "scannedPoints": 1},
                  validators=["v2"]), "client"),
    (True, _reply({"tail": [_tail(3, [1], [9.0])], "scannedPoints": 1},
                  validators=["v2"]), "decoder"),
    (True, _reply({"tail": [_head_tail([1, 3])], "scannedPoints": 1},
                  validators=["v2"]), "client"),
    (True, _reply({"tail": [_head_tail([0, 6])], "scannedPoints": 1},
                  validators=["v2"]), "client"),
    (True, _reply({"tail": [_head_tail([3, 0])], "scannedPoints": 1},
                  validators=["v2"]), "client"),
    (True, _reply({"tail": [_head_tail([0, 3], ([-1], [9.0]))],
                   "scannedPoints": 1}, validators=["v2"]), "client"),
    (True, _reply({"tail": [_head_tail([0, 3], ([-3, -2, -1], [9.0] * 6))],
                   "scannedPoints": 1}, validators=["v2"]), "client"),
    (False, _reply({"tail": [_head_tail([0, 3])], "scannedPoints": 0},
                   validators=["v2"]), "client"),
], ids=["unheld-not-modified", "not-modified-other-validator", "unheld-tail",
        "oversize-keep", "boolean-keep", "bad-tail-value", "short-tail",
        "long-tail", "no-form", "short-validators", "non-string-validator",
        "no-validators", "bad-base64", "ragged-column", "t-v-mismatch",
        "non-increasing-t", "keep-not-a-multiple-of-3", "tail-t-v-mismatch",
        "tail-goes-back-in-time", "pair-keep-not-a-multiple-of-3",
        "pair-keep-past-what-is-held", "pair-keep-backwards",
        "head-not-whole-groups-of-3", "head-t-v-mismatch", "unheld-head"])
def test_a_lying_server_is_a_wire_error_and_the_client_recovers(
        hold_first, lie, found_by):
    """A reply that does not fit what was sent is the client's to refuse:
    it forgets what it holds and drops the connection.  Bad column bytes
    — whole or in a tail, which the client splices as text — are the
    decoder's to find; the client holds them under the lie's validator
    until the next full reply replaces them."""
    q = Query("m", 0, 10)
    script = ([_FULL] if hold_first else []) + [lie, _FULL, _reply(
        {"notModified": True, "scannedPoints": 0}, validators=["v1"])]
    server = _ScriptedServer(*script)
    client = QueryClient(*server.address, retries=0)
    try:
        if hold_first:
            client.request([q])  # holds the reply
            assert len(client._held) == 1
        with pytest.raises(wire.WireError) as err:
            wire.decode_response(client.request([q]))
        assert not isinstance(err.value, KeyError)
        if found_by == "decoder":
            held = lie["validators"]
        else:
            assert len(client._held) == 0 and client._sock is None
            held = [None]
        again = client.request([q])
        assert server.requests[-1]["held"] == held
        assert again["results"] == _FULL["results"]
        unchanged = client.request([q])
        assert server.requests[-1]["held"] == ["v1"]
        assert unchanged["results"] == [
            {"series": [_series(3)], "scannedPoints": 0}]
    finally:
        client.close()
        server.close()


def test_the_client_answers_json_and_the_wire_decodes_it():
    """One form per call: the client returns replies as their JSON
    (``request`` / ``catalog_request``) and :func:`wire.decode_response`
    is the one decoder — no decoded twins, no decode-once cache."""
    import inspect

    assert not {"run", "run_many", "catalog"} & set(vars(QueryClient))
    assert list(client_module._Held.__slots__) == ["validator", "series"]
    for name in ("extend_series", "decode_catalog_response"):
        assert not hasattr(wire, name), name
    assert list(inspect.signature(wire.decode_response).parameters) == [
        "response"]


def test_a_version_1_request_is_answered_in_band_naming_version_2():
    db = TSDB()
    db.put("m", 0, 1.0, {"node": "a"})
    payload = {**wire.encode_request([Query("m", 0, 10)]), "version": 1}
    with live_server(db) as server:
        (line,) = _raw_lines(server.address,
                             json.dumps(payload).encode() + b"\n")
    error = json.loads(line)["error"]
    assert error["type"] == "WireError"
    assert "unsupported wire version 1" in error["message"]
    assert "speaks 2" in error["message"]


def test_a_tail_extends_what_is_held_and_leaves_it_alone():
    """The client-side splice on its own, against a scripted server:
    ``keep`` drops the non-final suffix, the tail is appended — both by
    slicing text — and the series handed out before are not touched."""
    q = Query("m", 0, 10)
    server = _ScriptedServer(
        _reply({"series": [_series(4)], "scannedPoints": 4},
               validators=["v1"]),
        _reply({"tail": [_tail(3, [3, 4], [2.5, np.nan])],
                "scannedPoints": 2}, validators=["v2"]))
    client = QueryClient(*server.address, retries=0)
    try:
        (first,) = wire.decode_response(client.request([q]))
        held = client.request([q])["results"][0]["series"]  # scripted: tail
    finally:
        client.close()
        server.close()
    assert held == [{"metric": "m", "tags": {},
                     "t": _b64([0, 1, 2, 3, 4], "<i8"),
                     "v": _b64([0.0, 1.0, 2.0, 2.5, np.nan], "<f8")}]
    assert list(first.series[0].values) == [0.0, 1.0, 2.0, 3.0]
    assert client._held.use(q.panel).validator == "v2"


def test_a_head_splice_moves_what_is_held_and_leaves_it_alone():
    """A pair ``keep`` on its own: the head's text, the held values
    ``[a, b)``, then the tail — by slicing text — and the series handed
    out before are not touched."""
    q = Query("m", 0, 10)
    server = _ScriptedServer(
        _reply({"series": [_series(7)], "scannedPoints": 7},
               validators=["v1"]),
        _reply({"tail": [_head_tail([3, 6], ([-3, -2, -1], [9.0] * 3),
                                    [6, 7], [6.5, 7.5])],
                "scannedPoints": 5}, validators=["v2"]))
    client = QueryClient(*server.address, retries=0)
    try:
        first = client.request([q])["results"][0]["series"]
        moved = client.request([q])["results"][0]["series"]
    finally:
        client.close()
        server.close()
    assert first == [_series(7)]
    assert moved == [{"metric": "m", "tags": {},
                      "t": _b64([-3, -2, -1, 3, 4, 5, 6, 7], "<i8"),
                      "v": _b64([9.0] * 3 + [3.0, 4.0, 5.0, 6.5, 7.5], "<f8")}]
    assert client._held.use(q.panel).validator == "v2"


# -- the refresher's panel table --------------------------------------------

def test_refresher_panel_table_evicts_the_least_recently_refreshed():
    """At the parent the 257th shape was served and never remembered —
    and so was every new shape after it, for the life of the server."""
    db = TSDB()
    for i in range(257):
        for t in (0, 60, 120):
            db.put(f"m{i}", t, float(t + i), {"node": "a"})

    def shape(i, end):
        return Query(f"m{i}", 0, end)

    refresher = CachingStore(db)
    for i in range(257):
        refresher.run(shape(i, 200))
    assert refresher.stats.full_runs == 257
    assert refresher.stats.evicted == 1
    db.put("m256", 180, 21.0, {"node": "a"})
    newest = refresher.run(shape(256, 300))
    assert refresher.stats.incremental_runs == 1
    # a fresh run's count: the window's four points, not the delta's one
    assert newest.scanned_points == 4
    assert (wire.encode_response([newest])
            == wire.encode_response([db.run(shape(256, 300))]))
    refresher.run(shape(1, 300))  # still remembered ...
    assert refresher.stats.incremental_runs == 2
    refresher.run(shape(0, 300))  # ... the oldest was not
    assert refresher.stats.full_runs == 258
    assert refresher.stats.evicted == 2
    assert len(refresher._panels) == 256


# -- a refresh is one batch -------------------------------------------------

def _refreshed(refresher, panels, *, one_at_a_time: bool):
    if not one_at_a_time:
        return refresher.run_many(panels)
    return [refresher.run(q) if isinstance(q, Query)
            else refresher.run_many([q])[0] for q in panels]


def _spliced(held_series, tail):
    """A *tail* entry's series: each held series' columns spliced as
    text with its element's head and tail, as :class:`QueryClient`
    does."""
    return [
        {**prev, **{c: wire.splice_column(
            prev[c], t["keep"], t[c], t.get("head", {}).get(c, ""))
            for c in "tv"}}
        for prev, t in zip(held_series, tail)]


def _assert_refresh_is_exact(inner, refresher, panels, *, one_at_a_time=False,
                             holds=None, names=None):
    """The refreshed reply, encoded the way the server encodes it, is
    the dict codec on the innermost store — as a dict and as bytes,
    ``scannedPoints`` included — and no validator names two texts, in
    this reply or in any other that shared ``names`` (validator → the
    text it named).  With ``holds``
    (Query.panel → validator and series, carried between calls) the
    reply is the one a holding client gets, put back together the way
    :class:`QueryClient` does it: held series, or held columns spliced
    with the head and tail as text."""
    shapes = [q.panel for q in panels]
    held = [None] * len(panels)
    if holds is not None:
        held = [holds.get(shape, (None,))[0] for shape in shapes]
    try:
        results = _refreshed(refresher, panels, one_at_a_time=one_at_a_time)
    except QueryError as exc:
        results = wire.encode_error(exc)
    # asked afterwards: a write may land in the middle of the refresh
    fresh = wire.handle_request(inner, wire.encode_request(panels))
    if isinstance(results, dict):
        assert fresh == results
        return
    got = json.loads(wire.encode_response_json(
        results, held=held, validator=entry_validator, tail=entry_tail))
    validators = got.pop("validators")
    assert "error" not in fresh
    for i, entry in enumerate(got["results"]):
        if entry.pop("notModified", False):
            entry["series"] = holds[shapes[i]][1]
        elif "tail" in entry:
            entry["series"] = _spliced(holds[shapes[i]][1], entry.pop("tail"))
        entry["scannedPoints"] = entry.pop("scannedPoints")  # key order
    if holds is not None:
        for shape, validator, entry in zip(shapes, validators, got["results"]):
            holds[shape] = (validator, entry["series"])
    assert got == fresh
    assert (json.dumps(got, allow_nan=False)
            == json.dumps(fresh, allow_nan=False))
    # a validator names its text, by content or by splice: equal
    # validators, equal text (equal text may be named twice)
    names = {} if names is None else names
    for validator, entry in zip(validators, fresh["results"]):
        text = json.dumps(entry["series"], allow_nan=False)
        assert names.setdefault(validator, text) == text


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@pytest.mark.parametrize("layout", ["single", "sharded"])  # retired layouts' ids
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_batch_refresh_is_per_panel_refresh_is_from_scratch(
        layout, data):
    """After every step, whatever it was — an append, a late write,
    retention, churn, nothing, a slid window — one batched refresh of
    the request ≡ a second refresher asked one panel at a time ≡
    ``run_many`` on the innermost store, for a client holding nothing
    and for one holding its last reply (answered with tails).  The
    request may name one panel shape twice (two windows).  Both
    refreshers run on ``CachingStore(DurableStore(ReplicatedStore(·)))``
    and every write goes through that stack."""
    draw = data.draw
    inner = TSDB()
    with _stack(inner) as stack:
        _refresh_steps(inner, stack, draw)


def _refresh_steps(inner, stack, draw):
    batch = CachingStore(stack, capacity=3)
    single = CachingStore(stack, capacity=3)
    holds: dict = {}
    names: dict = {}
    now, nodes, window = 0, ["a", "b"], (0, 0)
    picks, twice = [0, 1, 4, 5, 6], None
    ops = (("append",) * 4 + ("slide",) * 2
           + ("late", "retention", "churn", "repeat"))
    for _ in range(draw(st.integers(3, 20))):
        op = draw(st.sampled_from(ops))
        if op == "append":
            for _ in range(draw(st.integers(1, 6))):
                now += draw(st.integers(1, 9))
                stack.put("m", now, draw(_VALUES),
                          {"node": draw(st.sampled_from(nodes))})
        elif op == "late":  # out of order, or a duplicate instant
            stack.put("m", draw(st.integers(0, now)), draw(_VALUES),
                      {"node": draw(st.sampled_from(nodes))})
        elif op == "retention":
            stack.delete_before(draw(st.integers(0, now + 1)))
        elif op == "churn":
            if draw(st.booleans()):
                nodes.append(f"n{len(nodes)}")
                stack.put("m", draw(st.integers(0, now + 1)), draw(_VALUES),
                          {"node": nodes[-1]})
            else:  # a whole series goes away
                stack.delete_series_before(
                    SeriesKey.make(
                        "m", {"node": draw(st.sampled_from(nodes))}),
                    now + 1)
        elif op == "slide":
            start = draw(st.sampled_from(  # the start moves, or stays
                (window[0], 0, max(0, now - 60),
                 max(0, (now - 60) // 10 * 10))))
            window = (start, max(start, window[1], now + draw(
                st.integers(0, 5))))
            if draw(st.integers(0, 3)) == 0:
                picks = draw(st.lists(st.integers(0, 8), max_size=5))
            twice = draw(st.one_of(
                st.none(), st.integers(0, 20), st.integers(0, 20).map(
                    lambda back: back // 10 * 10)))
        window = (window[0], max(window[1], now))
        pool = _wall_panels(*window)
        panels = [pool[i] for i in picks]
        if twice is not None:  # the grouped panel again, a later start
            lo = min(window[0] + twice, window[1])
            panels.append(Query("m", lo, window[1], downsample="10s-avg",
                                group_by=("node",)))
        _assert_refresh_is_exact(inner, batch, panels, holds=holds,
                                 names=names)
        _assert_refresh_is_exact(inner, single, panels, one_at_a_time=True,
                                 names=names)


class _WritesMidRequest(StoreWrapper):
    """A layer under the cache that lands a write inside the planner's
    hook: once the request has read its validators and before the
    scans, or after the scans and before they are read again."""

    def __init__(self, store) -> None:
        super().__init__(store)
        self.before_scans = self.after_scans = None

    def _run_unique_batch(self, queries):
        write, self.before_scans = self.before_scans, None
        if write is not None:
            write()
        out = self._store._run_unique_batch(queries)
        write, self.after_scans = self.after_scans, None
        if write is not None:
            write()
        return out


@pytest.mark.parametrize("make_store", [TSDB, TSDB],
                         ids=["single", "sharded"])  # a retired layout's id
@pytest.mark.parametrize("when", ["before_scans", "after_scans"])
@pytest.mark.parametrize("write", ["late", "churn"])
def test_a_write_between_the_phases_sends_its_panels_down_the_full_path(
        make_store, when, write):
    """A view is one phase old.  Whatever reshapes a series — or the set
    of series — between the reads before the scans and the reads after
    them is seen by the second reads: the panels over it are dropped,
    counted and re-run in full, the others are spliced, and the reply is
    exact.  (Validators read once *per request* would stamp the churned
    panels fresh and splice a series with no history below the cut.)"""
    inner = make_store()
    for t in range(0, 100, 7):
        for node in ("a", "b"):
            inner.put("m", t, float(t), {"node": node})
            inner.put("other", t, float(-t), {"node": node})
    middle = _WritesMidRequest(inner)
    refresher = CachingStore(middle)

    def panels(end):
        by_node = Query("m", 0, end, downsample="10s-avg", group_by=("node",))
        return [by_node, Query("m", 0, end),
                Query("other", 0, end, downsample="10s-max")]

    names: dict = {}
    _assert_refresh_is_exact(inner, refresher, panels(100), names=names)
    assert refresher.stats.full_runs == 3
    for node in ("a", "b"):
        inner.put("m", 105, 1.0, {"node": node})
        inner.put("other", 105, 2.0, {"node": node})
    setattr(middle, when, {
        "late": lambda: inner.put("m", 50, 99.0, {"node": "a"}),
        "churn": lambda: inner.put("m", 50, 99.0, {"node": "new"}),
    }[write])
    _assert_refresh_is_exact(inner, refresher, panels(110), names=names)
    assert middle.before_scans is None and middle.after_scans is None
    assert refresher.stats.as_dict() == {
        "full_runs": 3 + 2, "incremental_runs": 1, "cache_only_runs": 0,
        "invalidated": 2, "evicted": 0, "batches": 2, "delta_queries": 3}
    # ... and what the full path remembered splices again
    for node in ("a", "b", "new")[:3 if write == "churn" else 2]:
        inner.put("m", 115, 3.0, {"node": node})
    _assert_refresh_is_exact(inner, refresher, panels(120), names=names)
    assert refresher.stats.incremental_runs == 1 + 3
    assert refresher.stats.invalidated == 2
