"""Conditional replies: the client says what it holds, the server
answers *not modified* or *the tail*, and nobody can tell.

- **equivalence** (hypothesis, the op grammar of
  ``test_property_reply_lines_equal_dumps_of_the_dict_codec``): whatever
  is appended, written late, retained away, churned, repeated or slid
  between requests, the dict a holding :class:`QueryClient` returns is
  ``wire.handle_request`` on the innermost store — as a dict and as
  ``json.dumps`` bytes, so ``dps`` order survives the splice — for a
  long-lived client, one that reconnects before every request, one whose
  held table evicts, and one that only ever calls ``run_many``;
- **costs as counts**: an unchanged 12-panel dashboard is answered in
  under 2 KB with nothing encoded, digested or decoded, a grown one in
  proportion to the delta;
- **a server that lies** gets a :class:`WireError`, an empty held table
  and a closed connection — and the client works afterwards;
- the refresher's panel table evicts, the envelope fields are checked.
"""

import json
import socket
import threading
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.cache as cache_module
import repro.serve.client as client_module
from repro.serve import CachingStore, IncrementalRefresher, QueryClient
from repro.serve.cache import BoundedLRU, entry_validator, series_tag, series_text
from repro.tsdb import (
    BatchBuilder,
    Query,
    QueryError,
    SeriesKey,
    ShardedTSDB,
    TSDB,
    expr,
    wire,
)
from repro.tsdb.interface import StoreWrapper
from test_serve import _VALUES, _raw_lines, _wall_panels, live_server


def _reference(inner, queries, got, refresh):
    """The reply a raw-socket client would have parsed, ``id`` aside:
    the dict codec on the innermost store, with a refreshed reply's
    ``scannedPoints`` (the delta's, by design) read from ``got``."""
    want = wire.handle_request(inner, wire.encode_request(queries))
    if refresh and "results" in want:
        for ours, theirs in zip(want["results"], got["results"]):
            ours["scannedPoints"] = theirs["scannedPoints"]
    return want


def _same_decoded(got, want, *, scanned: bool):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.expr == w.expr
        if scanned:
            assert g.scanned_points == w.scanned_points
        assert len(g.series) == len(w.series)
        for a, b in zip(g.series, w.series):
            assert (a.metric, a.tags) == (b.metric, b.tags)
            assert a.timestamps.dtype == b.timestamps.dtype
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.array_equal(a.values, b.values, equal_nan=True)


# -- equivalence ------------------------------------------------------------

#: The op grammar of the raw-socket property test, and its steady state
#: alone (append, ask again with ``refresh``) — where the tail is the
#: common answer rather than one in forty.
_OPS = {
    "everything": (("append",) * 4 + ("request",) * 6
                   + ("late", "retention", "churn", "repeat"),
                   (True, True, False)),
    "steady": (("append",) * 4 + ("request",) * 4 + ("repeat",) * 2,
               (True,)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@pytest.mark.parametrize("mix", list(_OPS))
@pytest.mark.parametrize("make_store", [TSDB, lambda: ShardedTSDB(4)],
                         ids=["single", "sharded"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_property_holding_clients_return_the_dict_codec(make_store, mix, data):
    ops, refreshes = _OPS[mix]
    inner = make_store()
    draw = data.draw
    now, nodes, window, picks, last = 0, ["a", "b"], (0, 0), [], None
    turn = 0

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
            want = _reference(inner, queries, got, refresh)
            assert got == want, name
            assert (json.dumps(got, allow_nan=False)
                    == json.dumps(want, allow_nan=False)), name
        want = wire.handle_request(inner, wire.encode_request(queries))
        if "error" in want:
            with pytest.raises(wire.RemoteQueryError):
                decoding.run_many(queries, refresh=refresh)
        else:
            _same_decoded(decoding.run_many(queries, refresh=refresh),
                          wire.decode_response(want), scanned=not refresh)

    with live_server(inner, cache_capacity=3) as server:
        host, port = server.address
        forgetful = QueryClient(host, port)
        forgetful._held = BoundedLRU(2)  # a request's four panels never fit
        clients = [("holding", QueryClient(host, port)),
                   ("reconnecting", QueryClient(host, port)),
                   ("forgetful", forgetful)]
        decoding = QueryClient(host, port)
        try:
            for _ in range(draw(st.integers(3, 20))):
                op = draw(st.sampled_from(ops))
                if op == "append":
                    for _ in range(draw(st.integers(1, 6))):
                        now += draw(st.integers(1, 9))
                        inner.put("m", now, draw(_VALUES),
                                  {"node": draw(st.sampled_from(nodes))})
                elif op == "late":  # out of order, or a duplicate instant
                    inner.put("m", draw(st.integers(0, now)), draw(_VALUES),
                              {"node": draw(st.sampled_from(nodes))})
                elif op == "retention":
                    inner.delete_before(draw(st.integers(0, now + 1)))
                elif op == "churn":
                    if draw(st.booleans()):
                        nodes.append(f"n{len(nodes)}")
                        now += 1
                        inner.put("m", now, draw(_VALUES),
                                  {"node": nodes[-1]})
                    else:  # a whole series goes away
                        inner.delete_series_before(
                            SeriesKey.make(
                                "m", {"node": draw(st.sampled_from(nodes))}),
                            now + 1)
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
        self.series_encoded = 0
        self.bytes_digested = 0
        self.points_decoded = 0
        real_series_json = wire.series_json
        real_blake2b = cache_module.blake2b
        real_decode_value = wire._decode_value

        def series_json(s):
            self.series_encoded += 1
            return real_series_json(s)

        def blake2b(data, **kwargs):
            self.bytes_digested += len(data)
            return real_blake2b(data, **kwargs)

        def decode_value(v):
            self.points_decoded += 1
            return real_decode_value(v)

        monkeypatch.setattr(wire, "series_json", series_json)
        monkeypatch.setattr(cache_module, "blake2b", blake2b)
        monkeypatch.setattr(wire, "_decode_value", decode_value)

    def reset(self) -> None:
        self.series_encoded = self.bytes_digested = self.points_decoded = 0


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


class TestCosts:
    def test_unchanged_dashboard_costs_look_ups_not_a_reply(
            self, history, monkeypatch):
        inner = ShardedTSDB(4)
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
            assert costs.series_encoded == series
            assert costs.bytes_digested > len(full_line) - 2_000
            assert server.stats()["replies"] == {
                "full": 12, "not_modified": 0, "tail": 0,
                "bytes": len(full_line)}

            costs.reset()
            before = server.stats()
            second = client.request(queries)
            line = tap.lines[-1]
            after = server.stats()
            assert len(line) < 2_000 and b'"dps"' not in line
            assert line.count(b'"notModified": true') == 12
            assert costs.series_encoded == 0
            # the entry validators alone: sixteen bytes per series
            assert costs.bytes_digested == 16 * series
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

            # run_many keeps what it decoded beside what it holds
            costs.reset()
            decoded = client.run_many(queries)
            assert costs.points_decoded == sum(
                len(s) for res in decoded for s in res)
            costs.reset()
            again = client.run_many(queries)
            assert costs.points_decoded == 0
            _same_decoded(again, wire.decode_response(raw), scanned=True)
            assert all(a.series is b.series for a, b in zip(decoded, again))

    def test_grown_dashboard_costs_its_tail(self, history, monkeypatch):
        inner = ShardedTSDB(4)
        inner.put_batch(history)
        end = (HISTORY_MINUTES - 1) * MINUTE
        costs = _Costs(monkeypatch)
        with live_server(inner) as server, \
                QueryClient(*server.address) as client:
            tap = client._file = _Tap(client._file)
            client.run_many(_dashboard(0, end), refresh=True)
            full_line = tap.lines[-1]
            held = client.request(_dashboard(0, end), refresh=True)
            assert tap.lines[-1].count(b'"notModified": true') == 12

            # one more minute, for one node of one metric
            end += MINUTE
            inner.put_batch(_minute(end, METRICS[:1], NODES[:1]))
            costs.reset()
            before = server.stats()
            grown = client.request(_dashboard(0, end), refresh=True)
            line = tap.lines[-1]
            after = server.stats()
            assert len(line) < 0.05 * len(full_line)
            assert _delta(after["replies"], before["replies"]) == {
                "full": 0, "not_modified": 9, "tail": 3, "bytes": len(line)}
            assert _delta(after["refresh"], before["refresh"])[
                "incremental_runs"] == 12
            # only the three panels of that metric were re-encoded, and
            # the splice encoded their new text without ``series_json``
            assert costs.series_encoded == 0

            want = _reference(inner, _dashboard(0, end), grown, True)
            assert grown.pop("id") and grown == want
            assert json.dumps(grown) == json.dumps(want)
            # new ``dps`` dicts for the series of the three panels that
            # came as a tail, and only those; what was handed out before
            # is left as it was
            rebuilt = changed = 0
            for old, new in zip(held["results"], grown["results"]):
                if old["series"] is new["series"]:
                    continue
                for a, b in zip(old["series"], new["series"]):
                    rebuilt += 1
                    assert a["dps"] is not b["dps"]
                    if a["dps"] != b["dps"]:
                        changed += 1
                        assert len(b["dps"]) == len(a["dps"]) + 1
            assert rebuilt == 1 + 1 + len(NODES)
            # the two ungrouped series and the one node's own
            assert changed == 3

            # ... and run_many decodes the tail alone
            costs.reset()
            decoded = client.run_many(_dashboard(0, end), refresh=True)
            assert costs.points_decoded == 0  # not modified since ``grown``
            end += MINUTE
            inner.put_batch(_minute(end))
            decoded = client.run_many(_dashboard(0, end), refresh=True)
            assert costs.points_decoded <= 2 * 4 * (1 + 1 + len(NODES))
            _same_decoded(
                decoded,
                wire.decode_response(wire.handle_request(
                    inner, wire.encode_request(_dashboard(0, end)))),
                scanned=False)


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


def _series(n: int) -> dict:
    return {"metric": "m", "tags": {},
            "dps": {str(t): float(t) for t in range(n)}}


def _reply(*entries: dict, validators) -> dict:
    return {"version": wire.WIRE_VERSION, "results": list(entries),
            "validators": validators}


_FULL = _reply({"series": [_series(3)], "scannedPoints": 3},
               validators=["v1"])


@pytest.mark.parametrize("hold_first, lie", [
    (False, _reply({"notModified": True, "scannedPoints": 0},
                   validators=["v1"])),
    (True, _reply({"notModified": True, "scannedPoints": 0},
                  validators=["someone-else's"])),
    (False, _reply({"tail": [{"keep": 0, "dps": {}}], "scannedPoints": 0},
                   validators=["v2"])),
    (True, _reply({"tail": [{"keep": 4, "dps": {"9": 9.0}}],
                   "scannedPoints": 1}, validators=["v2"])),
    (True, _reply({"tail": [{"keep": True, "dps": {"9": 9.0}}],
                   "scannedPoints": 1}, validators=["v2"])),
    (True, _reply({"tail": [{"keep": 3, "dps": {"9": "nine"}}],
                   "scannedPoints": 1}, validators=["v2"])),
    (True, _reply({"tail": [], "scannedPoints": 1}, validators=["v2"])),
    (True, _reply({"tail": [{"keep": 3, "dps": {}}] * 2, "scannedPoints": 1},
                  validators=["v2"])),
    (True, _reply({"scannedPoints": 1}, validators=["v2"])),
    (True, _reply({"series": [_series(3)], "scannedPoints": 3},
                  validators=[])),
    (True, _reply({"series": [_series(3)], "scannedPoints": 3},
                  validators=[7])),
    (True, {"version": wire.WIRE_VERSION,
            "results": [{"series": [_series(3)], "scannedPoints": 3}]}),
], ids=["unheld-not-modified", "not-modified-other-validator", "unheld-tail",
        "oversize-keep", "boolean-keep", "bad-tail-value", "short-tail",
        "long-tail", "no-form", "short-validators", "non-string-validator",
        "no-validators"])
def test_a_lying_server_is_a_wire_error_and_the_client_recovers(
        hold_first, lie):
    q = Query("m", 0, 10)
    script = ([_FULL] if hold_first else []) + [lie, _FULL, _reply(
        {"notModified": True, "scannedPoints": 0}, validators=["v1"])]
    server = _ScriptedServer(*script)
    client = QueryClient(*server.address, retries=0)
    try:
        if hold_first:
            client.run_many([q])  # holds the reply, decoded
            assert len(client._held) == 1
        with pytest.raises(wire.WireError) as err:
            client.run_many([q])
        assert not isinstance(err.value, KeyError)
        assert len(client._held) == 0 and client._sock is None
        # usable afterwards, holding nothing it was lied to about
        again = client.request([q])
        assert server.requests[-1]["held"] == [None]
        assert again["results"] == _FULL["results"]
        unchanged = client.request([q])
        assert server.requests[-1]["held"] == ["v1"]
        assert unchanged["results"] == [
            {"series": [_series(3)], "scannedPoints": 0}]
    finally:
        client.close()
        server.close()


def test_a_tail_extends_what_is_held_and_leaves_it_alone():
    """The client-side splice on its own, against a scripted server:
    ``keep`` drops the non-final suffix, the tail is appended, and the
    series handed out before are not touched."""
    q = Query("m", 0, 10)
    server = _ScriptedServer(
        _FULL,
        _reply({"tail": [{"keep": 2, "dps": {"2": 2.5, "3": None}}],
                "scannedPoints": 2}, validators=["v2"]))
    client = QueryClient(*server.address, retries=0)
    try:
        (first,) = client.run_many([q])
        held = client.request([q])["results"][0]["series"]  # scripted: tail
    finally:
        client.close()
        server.close()
    assert held == [{"metric": "m", "tags": {},
                     "dps": {"0": 0.0, "1": 1.0, "2": 2.5, "3": None}}]
    assert list(held[0]["dps"]) == ["0", "1", "2", "3"]
    assert list(first.series[0].values) == [0.0, 1.0, 2.0]
    assert client._held.use(client_module._panel_shape(
        wire.encode_query(q))).validator == "v2"


def test_a_tail_decodes_only_its_tail(monkeypatch):
    q = Query("m", 0, 10)
    server = _ScriptedServer(
        _FULL,
        _reply({"tail": [{"keep": 2, "dps": {"2": 2.5, "3": None}}],
                "scannedPoints": 2}, validators=["v2"]))
    client = QueryClient(*server.address, retries=0)
    decoded = []
    real = wire._decode_value
    monkeypatch.setattr(
        wire, "_decode_value", lambda v: decoded.append(v) or real(v))
    try:
        client.run_many([q])
        assert decoded == [0.0, 1.0, 2.0]
        del decoded[:]
        (result,) = client.run_many([q])
    finally:
        client.close()
        server.close()
    assert decoded == [2.5, None]
    assert list(result.series[0].timestamps) == [0, 1, 2, 3]
    assert result.series[0].timestamps.dtype == np.int64
    np.testing.assert_array_equal(
        result.series[0].values, [0.0, 1.0, 2.5, np.nan])
    assert result.scanned_points == 2


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

    refresher = IncrementalRefresher(db)
    for i in range(257):
        refresher.run(shape(i, 200))
    assert refresher.stats.full_runs == 257
    assert refresher.stats.evicted == 1
    db.put("m256", 180, 21.0, {"node": "a"})
    newest = refresher.run(shape(256, 300))
    assert refresher.stats.incremental_runs == 1
    assert newest.scanned_points == 1  # the delta, not the window
    assert (wire.encode_response([newest])["results"][0]["series"]
            == wire.encode_response(
                [db.run(shape(256, 300))])["results"][0]["series"])
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


def _assert_refresh_is_exact(inner, refresher, panels, *, one_at_a_time=False):
    """The refreshed reply, encoded the way the server encodes it, is
    the dict codec on the innermost store — as a dict and as bytes
    (``scannedPoints`` aside: a refresh reports the delta's) — and every
    series' carried text and digest are what a from-scratch encoding
    and a one-shot hash of it give."""
    try:
        results = _refreshed(refresher, panels, one_at_a_time=one_at_a_time)
    except QueryError as exc:
        results = wire.encode_error(exc)
    # asked afterwards: a write may land in the middle of the refresh
    want = wire.handle_request(inner, wire.encode_request(panels))
    if isinstance(results, dict):
        assert want == results
        return
    got = json.loads(wire.encode_response_json(
        results, series_json=series_text, held=[None] * len(panels),
        validator=entry_validator))
    assert len(got.pop("validators")) == len(panels)
    assert "error" not in want
    for ours, theirs in zip(want["results"], got["results"]):
        ours["scannedPoints"] = theirs["scannedPoints"]
    assert got == want
    assert (json.dumps(got, allow_nan=False)
            == json.dumps(want, allow_nan=False))
    for res in results:
        for s in res.series:
            assert series_text(s) == wire.series_json(s)
            assert series_tag(s) == blake2b(
                series_text(s), digest_size=16).digest()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@pytest.mark.parametrize("make_store", [TSDB, lambda: ShardedTSDB(4)],
                         ids=["single", "sharded"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_batch_refresh_is_per_panel_refresh_is_from_scratch(
        make_store, data):
    """After every step, whatever it was — an append, a late write,
    retention, churn, nothing, a slid window — one batched refresh of
    the request ≡ a second refresher asked one panel at a time ≡
    ``run_many`` on the innermost store.  The request may name one
    panel shape twice (two windows) and carries expression panels whose
    operands are sibling panels."""
    inner = make_store()
    draw = data.draw
    batch = IncrementalRefresher(CachingStore(inner, capacity=3))
    single = IncrementalRefresher(CachingStore(inner, capacity=3))
    now, nodes, window = 0, ["a", "b"], (0, 0)
    picks, twice = [0, 1, 4, 5, 6], None
    ops = (("append",) * 4 + ("slide",) * 2
           + ("late", "retention", "churn", "repeat"))
    for _ in range(draw(st.integers(3, 20))):
        op = draw(st.sampled_from(ops))
        if op == "append":
            for _ in range(draw(st.integers(1, 6))):
                now += draw(st.integers(1, 9))
                inner.put("m", now, draw(_VALUES),
                          {"node": draw(st.sampled_from(nodes))})
        elif op == "late":  # out of order, or a duplicate instant
            inner.put("m", draw(st.integers(0, now)), draw(_VALUES),
                      {"node": draw(st.sampled_from(nodes))})
        elif op == "retention":
            inner.delete_before(draw(st.integers(0, now + 1)))
        elif op == "churn":
            if draw(st.booleans()):
                nodes.append(f"n{len(nodes)}")
                inner.put("m", draw(st.integers(0, now + 1)), draw(_VALUES),
                          {"node": nodes[-1]})
            else:  # a whole series goes away
                inner.delete_series_before(
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
        _assert_refresh_is_exact(inner, batch, panels)
        _assert_refresh_is_exact(inner, single, panels, one_at_a_time=True)


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


@pytest.mark.parametrize("make_store", [TSDB, lambda: ShardedTSDB(4)],
                         ids=["single", "sharded"])
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
    refresher = IncrementalRefresher(CachingStore(middle))

    def panels(end):
        by_node = Query("m", 0, end, downsample="10s-avg", group_by=("node",))
        return [by_node, Query("m", 0, end), expr("a * 2", a=by_node),
                Query("other", 0, end, downsample="10s-max")]

    _assert_refresh_is_exact(inner, refresher, panels(100))
    assert refresher.stats.full_runs == 3
    for node in ("a", "b"):
        inner.put("m", 105, 1.0, {"node": node})
        inner.put("other", 105, 2.0, {"node": node})
    setattr(middle, when, {
        "late": lambda: inner.put("m", 50, 99.0, {"node": "a"}),
        "churn": lambda: inner.put("m", 50, 99.0, {"node": "new"}),
    }[write])
    _assert_refresh_is_exact(inner, refresher, panels(110))
    assert middle.before_scans is None and middle.after_scans is None
    assert refresher.stats.as_dict() == {
        "full_runs": 3 + 2, "incremental_runs": 1, "cache_only_runs": 0,
        "invalidated": 2, "evicted": 0, "batches": 2, "delta_queries": 3}
    # ... and what the full path remembered splices again
    for node in ("a", "b", "new")[:3 if write == "churn" else 2]:
        inner.put("m", 115, 3.0, {"node": node})
    _assert_refresh_is_exact(inner, refresher, panels(120))
    assert refresher.stats.incremental_runs == 1 + 3
    assert refresher.stats.invalidated == 2
