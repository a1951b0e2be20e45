"""Serving-layer tests: cache validity, incremental refresh, live server.

Three correctness contracts, in increasing integration order:

- :class:`~repro.serve.refresh.CachingStore` answers are **byte-identical**
  to uncached ``run_many`` and invalidation is exact: a write to a
  matched series drops precisely the entries it can
  affect, a raced write is never stamped fresh;
- its panel state's output (a moved window spliced from held buckets)
  is byte-identical to a full re-scan, ``scannedPoints`` included, under
  arbitrary interleavings of appends and window slides (hypothesis),
  while actually taking the incremental path in steady state;
- the asyncio :class:`~repro.serve.server.QueryServer` serves N
  concurrent clients the same bytes the store produces, survives
  malformed requests without dropping the connection, and applies
  per-tenant admission control;
- the columnar reply path: every reply **line** is byte-identical to
  ``json.dumps`` of the dict codec on the innermost store (hypothesis,
  hits / misses / refreshes / errors), and the digest a
  reply leaves on a series dies with the cache entry or panel state
  that holds it.
"""

import asyncio
import contextlib
import gc
import json
import math
import socket
import threading
import time
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    CachingStore,
    QueryClient,
    QueryServer,
    TenantPolicy,
)
from repro.serve.cache import (
    HELD_PANELS,
    ResultCache,
    cached_series_tag,
    entry_tail,
    entry_validator,
)
from repro.serve.server import MAX_LINE_BYTES, _Job, _Lane
from repro.tsdb import Query, SeriesKey, TSDB, wire


def _seeded(store, n=12, nodes="ab"):
    for i in range(n):
        for node in nodes:
            store.put("air.co2.ppm", i * 300, 400.0 + i + ord(node),
                      {"node": node, "city": "trondheim"})
    return store


def _same_bytes(a, b):
    """Results are interchangeable iff their wire encodings are equal."""
    return wire.encode_response_json([a]) == wire.encode_response_json([b])


@pytest.fixture(params=["single", "sharded"])  # "sharded": a retired layout's id
def store(request):
    return _seeded(TSDB())


class TestCachingStore:
    def test_hit_returns_identical_result(self, store):
        caching = CachingStore(store)
        q = Query("air.co2.ppm", 0, 4000, downsample="10m-avg")
        first = caching.run_many([q])[0]
        second = caching.run_many([q])[0]
        assert second is first  # the very same object: byte-identical
        assert caching.cache.stats.hits == 1
        assert _same_bytes(first, store.run_many([q])[0])

    def test_write_to_matched_series_invalidates(self, store):
        caching = CachingStore(store)
        q = Query("air.co2.ppm", 0, 10_000, tags={"node": "a"})
        stale = caching.run_many([q])[0]
        store.put("air.co2.ppm", 9000, 999.0,
                  {"node": "a", "city": "trondheim"})
        fresh = caching.run_many([q])[0]
        assert fresh is not stale
        assert caching.cache.stats.invalidated == 1
        assert 999.0 in list(fresh.series[0].values)
        assert _same_bytes(fresh, store.run_many([q])[0])

    def test_write_to_unmatched_series_keeps_entry(self, store):
        caching = CachingStore(store)
        qa = Query("air.co2.ppm", 0, 10_000, tags={"node": "a"})
        qb = Query("air.co2.ppm", 0, 10_000, tags={"node": "b"})
        a1, _ = caching.run_many([qa, qb])
        store.put("air.co2.ppm", 9000, 999.0,
                  {"node": "b", "city": "trondheim"})
        a2, b2 = caching.run_many([qa, qb])
        assert a2 is a1  # node=a untouched: still served from cache
        assert 999.0 in list(b2.series[0].values)

    def test_new_series_under_metric_invalidates_match(self, store):
        caching = CachingStore(store)
        q = Query("air.co2.ppm", 0, 10_000, group_by=("node",))
        first = caching.run_many([q])[0]
        assert len(first.series) == 2
        store.put("air.co2.ppm", 600, 1.0, {"node": "c", "city": "vejle"})
        second = caching.run_many([q])[0]
        assert len(second.series) == 3
        assert _same_bytes(second, store.run_many([q])[0])

    def test_interleaved_writes_stay_byte_identical(self, store):
        """The headline contract, under a write/read interleaving."""
        mirror = _seeded(TSDB())  # uncached reference
        caching = CachingStore(store)
        qs = [
            Query("air.co2.ppm", 0, 40_000, downsample="10m-avg"),
            Query("air.co2.ppm", 0, 40_000, aggregator="count",
                  group_by=("node",)),
            Query("air.co2.ppm", 0, 40_000, tags={"node": "b"}),
        ]
        for round_no in range(6):
            got = caching.run_many(qs)
            want = mirror.run_many(qs)
            assert (wire.encode_response_json(got)
                    == wire.encode_response_json(want))
            ts = 4000 + round_no * 300
            node = "ab"[round_no % 2]
            for s in (store, mirror):
                s.put("air.co2.ppm", ts, float(round_no),
                      {"node": node, "city": "trondheim"})
        stats = caching.cache.stats
        assert stats.hits > 0 and stats.invalidated > 0

    def test_raced_write_is_never_cached(self, store):
        cache = ResultCache()
        q = Query("air.co2.ppm", 0, 10_000)
        validators = cache.capture(store, q)
        result = store.run_many([q])[0]
        store.put("air.co2.ppm", 9000, 1.0,
                  {"node": "a", "city": "trondheim"})  # the "race"
        assert cache.insert(store, q, validators, result) is False
        assert cache.stats.skipped == 1
        assert cache.lookup(store, q) is None

    def test_a_stale_entry_dropped_meanwhile_is_a_plain_miss(self, store):
        """Two lane workers may validate the same stale entry; the one
        that drops it second must answer a miss, not raise KeyError."""
        cache = ResultCache()
        q = Query("air.co2.ppm", 0, 10_000)
        cache.insert(store, q, cache.capture(store, q), store.run_many([q])[0])
        store.put("air.co2.ppm", 9000, 1.0,
                  {"node": "a", "city": "trondheim"})
        holds = cache._holds

        def holds_while_the_other_worker_drops(s, request, validators):
            cache._entries.pop(request)
            return holds(s, request, validators)

        cache._holds = holds_while_the_other_worker_drops
        assert cache.lookup(store, q) is None
        assert len(cache) == 0
        assert cache.stats.invalidated == 1 and cache.stats.misses == 1

    def test_lru_eviction(self, store):
        caching = CachingStore(store, capacity=2)
        qs = [Query("air.co2.ppm", 0, 1000 * i) for i in (1, 2, 3)]
        for q in qs:
            caching.run_many([q])
        assert len(caching.cache) == 2
        assert caching.cache.stats.evicted == 1
        caching.run_many([qs[0]])  # evicted: a miss again
        assert caching.cache.stats.hits == 0


class TestIncrementalRefresher:
    def test_steady_state_takes_incremental_path(self):
        db = _seeded(TSDB())
        refresher = CachingStore(db)
        q1 = Query("air.co2.ppm", 0, 4000, downsample="10m-avg")
        full = refresher.run(q1)
        db.put("air.co2.ppm", 4500, 500.0, {"node": "a", "city": "trondheim"})
        q2 = Query("air.co2.ppm", 0, 5000, downsample="10m-avg")
        inc = refresher.run(q2)
        assert refresher.stats.full_runs == 1
        assert refresher.stats.incremental_runs == 1
        # a fresh run's count over the grown window, not the delta's
        assert inc.scanned_points == full.scanned_points + 1
        assert _same_bytes(inc, db.run_many([q2])[0])

    def test_unchanged_window_is_cache_only(self):
        db = _seeded(TSDB())
        caching = CachingStore(db)
        # end == the newest point: everything in-window is final history
        q = Query("air.co2.ppm", 0, 3300)
        first = caching.run(q)
        assert caching.run(q) is first  # an exact repeat: a cache hit
        caching.cache.clear()  # the result cache forgot it; the panel not
        second = caching.run(q)
        assert caching.stats.cache_only_runs == 1
        assert second.series is first.series
        # a fresh run's count, off the panel state
        assert second.scanned_points == first.scanned_points
        assert _same_bytes(first, second)

    def test_rate_always_runs_full(self):
        db = _seeded(TSDB())
        refresher = CachingStore(db)
        refresher.run(Query("air.co2.ppm", 0, 4000, rate=True))
        refresher.run(Query("air.co2.ppm", 0, 5000, rate=True))
        assert refresher.stats.full_runs == 2
        assert refresher.stats.incremental_runs == 0

    def test_out_of_order_write_invalidates(self):
        db = _seeded(TSDB())
        refresher = CachingStore(db)
        refresher.run(Query("air.co2.ppm", 0, 4000))
        # Lands *before* the series maximum: history is no longer final.
        db.put("air.co2.ppm", 150, 7.0, {"node": "a", "city": "trondheim"})
        q = Query("air.co2.ppm", 0, 5000)
        out = refresher.run(q)
        assert refresher.stats.invalidated == 1
        assert refresher.stats.incremental_runs == 0
        assert _same_bytes(out, db.run_many([q])[0])

    def test_incremental_run_extends_the_encoded_text(self):
        """Once a reply has named a panel, the next incremental runs are
        answered with a tail, and the held columns spliced with it as
        text are a from-scratch encode; a panel nobody named gets none."""
        db = _seeded(TSDB())
        refresher = CachingStore(db)
        unread = CachingStore(db)
        held = None
        for round_no, end in enumerate((4000, 5000, 6000, 6000, 7000)):
            q = Query("air.co2.ppm", 0, end, downsample="10m-avg",
                      group_by=("node",))
            (res,) = refresher.run_many([q])
            forms = []
            reply = json.loads(wire.encode_response_json(
                [res], held=[held and held[0]], validator=entry_validator,
                tail=entry_tail, forms=forms))
            (want,) = wire.encode_response([db.run(q)])["results"]
            # full run: nothing to extend; later runs: a tail (or, once
            # nothing was written, not modified)
            assert forms == [["full", "tail", "tail", "not_modified",
                              "tail"][round_no]]
            (entry,) = reply["results"]
            if forms == ["tail"]:
                entry["series"] = [
                    {**prev, **{c: wire.splice_column(prev[c], t["keep"], t[c])
                                for c in "tv"}}
                    for prev, t in zip(held[1], entry.pop("tail"))]
            elif forms == ["not_modified"]:
                entry["series"] = held[1]
            assert entry["series"] == want["series"]
            held = (reply["validators"][0], entry["series"])
            assert entry_tail(unread.run(q).series, held[0]) is None
            db.put("air.co2.ppm", end + 100, 500.0 + round_no,
                   {"node": "ab"[round_no % 2], "city": "trondheim"})
        assert refresher.stats.full_runs == 1
        assert refresher.stats.incremental_runs >= 3

    def test_delta_with_empty_siblings_equals_full_window_bytes(self):
        """One −0.0 point lands, its sibling series have nothing new: the
        delta scan sees a lone series, the full window a group.  Both
        fold it from +0.0, so the reply text is the same bytes."""
        db = TSDB()
        for node in "ab":
            db.put("m", 12, 1.0, {"node": node})
        refresher = CachingStore(db)
        for agg in ("avg", "sum"):
            refresher.run(Query("m", 0, 20, aggregator=agg))
        db.put("m", 15, -0.0, {"node": "a"})
        for agg in ("avg", "sum"):
            q = Query("m", 0, 20, aggregator=agg)
            got, want = refresher.run(q).single(), db.run(q).single()
            assert want.values[-1] == 0.0 and not np.signbit(want.values[-1])
            assert (wire.columns(got.timestamps, got.values)
                    == wire.columns(want.timestamps, want.values))
        assert refresher.stats.incremental_runs == 2

    def test_one_instant_delta_equals_full_window_bytes(self):
        """A delta holding a single instant of many series adds them in
        the same order as that instant inside the full window (a dense
        one-column matrix would have numpy sum it pairwise)."""
        rng = np.random.default_rng(14)
        db = TSDB()
        nodes = [f"n{i:02d}" for i in range(25)]
        for t in (10, 20):
            for node, v in zip(nodes, 10.0 ** rng.uniform(-3, 8, 25)):
                db.put("m", t, v, {"node": node})
        refresher = CachingStore(db)
        for agg in ("avg", "sum", "dev"):
            refresher.run(Query("m", 0, 20, aggregator=agg))
        for _ in range(20):  # enough draws that regrouping moves an ulp
            t = int(db.run(Query("m", 0, 10**6)).single().timestamps[-1]) + 10
            for node, v in zip(nodes, 10.0 ** rng.uniform(-3, 8, 25)):
                db.put("m", t, v, {"node": node})
            for agg in ("avg", "sum", "dev"):
                q = Query("m", 0, t + 5, aggregator=agg)
                got, want = refresher.run(q), db.run(q)
                assert _same_bytes(got, want)
        assert refresher.stats.incremental_runs == 60

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_refresh_equals_full_rescan(self, data):
        """Any append/slide interleaving: refresher ≡ fresh run_many —
        including a start slid off the bucket grid (the head rule)."""
        db = TSDB()
        refresher = CachingStore(db)
        agg = data.draw(st.sampled_from(("avg", "count", "max", "dev")))
        downsample = data.draw(
            st.sampled_from((None, "10s-avg", "10s-avg-zero", "10s-count")))
        group_by = data.draw(st.sampled_from(((), ("node",))))
        now = start = 0
        for _ in range(data.draw(st.integers(2, 6))):
            for _ in range(data.draw(st.integers(0, 15))):
                now += data.draw(st.integers(1, 9))
                db.put("m", now, float(data.draw(st.integers(-5, 5))),
                       {"node": data.draw(st.sampled_from("ab"))})
            start = data.draw(st.sampled_from(
                (0, max(0, now - 60), max(0, (now - 60) // 10 * 10),
                 start + data.draw(st.integers(1, 25)))))
            end = now + data.draw(st.integers(0, 5))
            if end < start:
                continue
            q = Query("m", start, end, aggregator=agg,
                      downsample=downsample, group_by=group_by)
            got = refresher.run(q)
            want = db.run_many([q])[0]
            assert _same_bytes(got, want)


# -- live-server integration ------------------------------------------------

@contextlib.contextmanager
def live_server(store, **kwargs):
    """A QueryServer on its own event-loop thread, torn down cleanly."""
    server = QueryServer(store, port=0, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    stop_event: list[asyncio.Event] = []

    async def main():
        stop = asyncio.Event()
        stop_event.append(stop)
        await server.start()
        started.set()
        await stop.wait()
        await server.stop()
        # ``stop`` does not wait for connection handlers; let those whose
        # client has hung up see it, cancel the rest and wait for them too,
        # so that each closes its socket before the loop is closed.  A
        # connection accepted just before the listener closed starts its
        # handler only after the accept's own task ends: wait again until
        # no task is left.
        while handlers := asyncio.all_tasks() - {asyncio.current_task()}:
            _, stuck = await asyncio.wait(handlers, timeout=1)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)

    thread = threading.Thread(
        target=lambda: loop.run_until_complete(main()), daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(stop_event[0].set)
        thread.join(timeout=10)
        loop.close()


class _SlowStore(TSDB):
    """A store whose batch execution takes a visible amount of time."""

    def _run_unique_batch(self, queries):
        time.sleep(0.05)
        return super()._run_unique_batch(queries)


def _raw_lines(address, *lines):
    """Send raw request lines over one connection; one reply line each,
    as the bytes it arrived as."""
    with socket.create_connection(address, timeout=10) as sock, \
            sock.makefile("rb") as file:
        replies = []
        for line in lines:
            sock.sendall(line if isinstance(line, bytes) else line.encode())
            replies.append(file.readline())
        return replies


def _raw_exchange(address, *lines):
    return [json.loads(reply) for reply in _raw_lines(address, *lines)]


def _decoded(client, queries):
    """One request's reply through the client-side decoder (an in-band
    error raises :class:`~repro.tsdb.wire.RemoteQueryError`)."""
    return wire.decode_response(client.request(queries))


def _catalog(client, op, **kwargs):
    """One catalog reply's payload: its ``values``, or its ``count``."""
    body = client.catalog_request(op, **kwargs)["catalog"]
    return body["count"] if "count" in body else body["values"]


def _pipelined_exchange(address, *lines):
    """Send every line up front, then collect one reply per line."""
    with socket.create_connection(address, timeout=10) as sock, \
            sock.makefile("rb") as file:
        sock.sendall(b"".join(
            line if isinstance(line, bytes) else line.encode()
            for line in lines))
        return [json.loads(file.readline()) for _ in lines]


def _one_line_each(address, *lines):
    """Send each line over a connection of its own, every line before
    any reply is read; one reply per line, in the order sent."""
    with contextlib.ExitStack() as stack:
        socks = [stack.enter_context(socket.create_connection(address,
                                                              timeout=10))
                 for _ in lines]
        for sock, line in zip(socks, lines):
            sock.sendall(line.encode())
        return [json.loads(stack.enter_context(sock.makefile("rb")).readline())
                for sock in socks]


class TestQueryServer:
    def test_concurrent_clients_get_store_bytes(self, store):
        qs = [
            Query("air.co2.ppm", 0, 4000, downsample="10m-avg"),
            Query("air.co2.ppm", 0, 4000, group_by=("node",)),
        ]
        want = wire.encode_response(store.run_many(qs))
        failures = []

        def one_client(i):
            try:
                with QueryClient(*server.address, tenant=f"t{i % 3}") as c:
                    for _ in range(4):
                        got = c.request(qs)
                        got.pop("id", None)
                        if got != want:
                            failures.append(got)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        # named in tenant_policies, so their lanes stay for the stats below
        tenants = {f"t{i}": TenantPolicy() for i in range(3)}
        with live_server(store, tenant_policies=tenants) as server:
            threads = [threading.Thread(target=one_client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not failures
            stats = server.stats()
        assert stats["requests"] == 32
        assert stats["cache"]["hits"] >= 32 - len(qs)
        assert set(stats["tenants"]) == {"t0", "t1", "t2"}
        assert sum(lane["admitted"]
                   for lane in stats["tenants"].values()) == 32

    def test_an_expr_query_is_refused_in_band(self, store):
        """A version-2 client that still sends the retired expression
        form gets the strict field check's in-band ``WireError``, naming
        the field, and the connection then serves a plain query."""
        plain = Query("air.co2.ppm", 0, 4000, tags={"node": "a"})
        old = {"expr": "a * 2", "operands": {"a": wire.encode_query(plain)}}
        with live_server(store) as server:
            refused, served = _raw_exchange(
                server.address,
                json.dumps({"version": wire.WIRE_VERSION, "queries": [old]})
                + "\n",
                _request_line([plain]),
            )
        assert refused["error"]["type"] == "WireError"
        assert "'expr'" in refused["error"]["message"]
        assert served == wire.handle_request(store, wire.encode_request([plain]))

    def test_a_non_string_downsample_is_refused_in_band(self, store):
        """``"downsample": 5`` is a bad request, not a server fault: an
        in-band ``WireError`` naming the field (never ``InternalError``,
        which tells a client to retry elsewhere), and the connection
        then serves a plain query."""
        plain = Query("air.co2.ppm", 0, 4000, tags={"node": "a"})
        bad = {**wire.encode_query(plain), "downsample": 5}
        with live_server(store) as server:
            refused, served = _raw_exchange(
                server.address,
                json.dumps({"version": wire.WIRE_VERSION, "queries": [bad]})
                + "\n",
                _request_line([plain]),
            )
        assert refused["error"]["type"] == "WireError"
        assert "downsample" in refused["error"]["message"]
        assert served == wire.handle_request(store, wire.encode_request([plain]))

    def test_malformed_lines_keep_connection_usable(self, store):
        request = wire.encode_request([Query("air.co2.ppm", 0, 4000)])
        good = json.dumps({**request, "id": 7}) + "\n"
        # envelope fields are checked, not coerced, and ``refresh`` is a
        # field the request format does not name, whatever its value
        bad_refresh = [json.dumps({**request, "refresh": value}) + "\n"
                       for value in (True, False, "false", 1, None)]
        bad_held = [json.dumps({**request, "held": value}) + "\n"
                    for value in ("abc", {"0": "abc"}, [], ["a", "b"], [7],
                                  [["a"]], ["x" * 65])]
        with live_server(store) as server:
            replies = _raw_exchange(
                server.address,
                "this is not json\n",
                '"a json string, not an object"\n',
                json.dumps({"version": 99, "queries": []}) + "\n",
                json.dumps({"version": wire.WIRE_VERSION,
                            "queries": [{"metric": "m", "start": True,
                                         "end": 4}]}) + "\n",
                *bad_refresh,
                *bad_held,
                json.dumps({"version": wire.WIRE_VERSION, "held": [None],
                            "catalog": {"op": "metrics"}}) + "\n",
                json.dumps({**request, "held": [None]}) + "\n",
                json.dumps({**request, "held": ["x" * 64]}) + "\n",
                good,
            )
            stats = server.stats()
        errors, served = replies[:-3], replies[-3:]
        assert [r["error"]["type"] for r in errors] == ["WireError"] * 17
        for reply in errors[4:9]:
            assert reply["error"]["message"] == (
                "unknown request fields: ['refresh']")
        for reply in errors[9:]:
            assert "'held'" in reply["error"]["message"]
        assert all("results" in r for r in served)
        assert [len(r.get("validators", ())) for r in served] == [1, 1, 0]
        assert served[2]["id"] == 7
        # three requests run, one path: the first misses and runs in
        # full, the other two hit the result cache
        assert stats["refresh"]["batches"] == 3
        assert stats["refresh"]["full_runs"] == 1
        assert stats["cache"]["hits"] == 2

    def test_store_fault_answers_internal_error(self):
        class ExplodingStore(TSDB):
            def _run_unique_batch(self, queries):
                raise RuntimeError("disk on fire")

        with live_server(_seeded(ExplodingStore())) as server:
            (reply,) = _raw_exchange(
                server.address,
                json.dumps(wire.encode_request(
                    [Query("air.co2.ppm", 0, 100)])) + "\n")
        assert reply["error"]["type"] == "InternalError"
        assert "disk on fire" in reply["error"]["message"]

    def test_drop_oldest_admission_answers_overloaded(self):
        policy = TenantPolicy(max_pending=1, backpressure="drop-oldest",
                              parallelism=1)
        line = json.dumps(wire.encode_request(
            [Query("air.co2.ppm", 0, 4000)])) + "\n"
        with live_server(_seeded(_SlowStore()),
                         default_policy=policy) as server:
            replies = _one_line_each(server.address, *([line] * 8))
            stats = server.stats()
        dropped = [r for r in replies if "error" in r]
        served = [r for r in replies if "results" in r]
        assert dropped and served  # overload answered, not wedged
        assert all(r["error"]["type"] == "Overloaded" for r in dropped)
        assert stats["tenants"]["public"]["dropped"] == len(dropped)

    @pytest.mark.parametrize("backpressure", ["block", "drop-oldest"])
    def test_a_client_that_reads_nothing_stalls_no_other(self, backpressure):
        """Client A sends eight requests for a 400 000-point series and
        reads nothing; client B, on A's tenant, is answered all the same
        (at the parent the lane's worker waited for A to read, and B got
        no reply under either policy).  Once A reads, each of its lines
        has exactly one reply, results or ``Overloaded``, and the
        server's counters agree with the replies seen."""
        n = 400_000
        store = _seeded(TSDB())
        store.put_series("big", np.arange(n) * 10, np.ones(n), {"node": "a"})
        big = "".join(_request_line([Query("big", 0, n * 10)], id=i)
                      for i in range(8))
        one_point = _request_line(
            [Query("air.co2.ppm", 0, 1, tags={"node": "a"})], id="b")
        policy = TenantPolicy(max_pending=2, backpressure=backpressure,
                              parallelism=1)
        with live_server(store, default_policy=policy) as server:
            with socket.create_connection(server.address, timeout=30) as a, \
                    a.makefile("rb") as a_file:
                a.sendall(big.encode())
                time.sleep(0.5)  # A's lines are in before B's
                with socket.create_connection(server.address, timeout=5) as b, \
                        b.makefile("rb") as b_file:
                    b.sendall(one_point.encode())
                    b_reply = json.loads(b_file.readline())
                a_replies = [json.loads(a_file.readline()) for _ in range(8)]
            stats = server.stats()
        assert b_reply["id"] == "b"
        assert b_reply["results"][0]["scannedPoints"] == 1
        assert [r["id"] for r in a_replies] == list(range(8))
        dropped = [r for r in a_replies if "error" in r]
        assert all(r["error"]["type"] == "Overloaded" for r in dropped)
        assert all(len(r["results"][0]["series"]) == 1
                   for r in a_replies if "error" not in r)
        if backpressure == "block":
            assert not dropped
        assert stats["requests"] == 9
        assert stats["errors"] == len(dropped)
        assert stats["tenants"]["public"]["dropped"] == len(dropped)
        assert stats["tenants"]["public"]["admitted"] == 9

    @pytest.mark.parametrize("backpressure", ["block", "drop-oldest"])
    def test_a_client_that_half_closes_is_still_answered(self, backpressure):
        """A client sends its last lines, half-closes (``shutdown(SHUT_WR)``,
        as ``nc -N`` does) and reads: every line it sent is answered
        before the server closes.  At the parent the handler closed the
        connection at end of stream and the lane's reply for the
        400 000-point series was dropped: 0 bytes back, ``requests`` 1."""
        n = 400_000
        store = TSDB()
        store.put_series("big", np.arange(n) * 10, np.ones(n), {"node": "a"})
        store.put("small", 0, 1.0, {"node": "a"})
        lines = (_request_line([Query("big", 0, n * 10)], id=1)
                 + _request_line([Query("small", 0, 10)], id=2))
        policy = TenantPolicy(backpressure=backpressure)
        with live_server(store, default_policy=policy) as server:
            with socket.create_connection(server.address, timeout=30) as sock, \
                    sock.makefile("rb") as file:
                sock.sendall(lines.encode())
                sock.shutdown(socket.SHUT_WR)
                replies = [json.loads(line) for line in file]
            stats = server.stats()
        assert [r["id"] for r in replies] == [1, 2]
        by_id = {r["id"]: r for r in replies}
        assert by_id[1]["results"][0]["scannedPoints"] == n
        assert by_id[2]["results"][0]["scannedPoints"] == 1
        assert stats["requests"] == 2 and stats["errors"] == 0

    def test_a_client_that_reads_nothing_holds_one_reply(self):
        """A client pipelines eight requests for a 400 000-point series
        and reads nothing: the server reads one line, answers it, and
        reads no further while the reply waits (at the parent it read
        all eight, ``requests`` 8, and buffered each reply a worker
        finished, in any order).  Once the client reads, the ids come
        back in the order sent."""
        n = 400_000
        store = TSDB()
        store.put_series("big", np.arange(n) * 10, np.ones(n), {"node": "a"})
        lines = "".join(_request_line([Query("big", 0, n * 10)], id=i)
                        for i in range(8))
        with live_server(store) as server:
            with socket.create_connection(server.address, timeout=30) as sock, \
                    sock.makefile("rb") as file:
                sock.sendall(lines.encode())
                deadline = time.monotonic() + 20
                while (not server.stats()["replies"]["bytes"]
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                time.sleep(0.5)  # time for more lines, were any read
                unread = server.stats()
                replies = [json.loads(file.readline()) for _ in range(8)]
            stats = server.stats()
        assert unread["requests"] == 1
        assert unread["replies"]["full"] == 1
        assert [r["id"] for r in replies] == list(range(8))
        assert all(r["results"][0]["scannedPoints"] == n for r in replies)
        assert stats["requests"] == 8 and stats["errors"] == 0

    def test_a_tenant_leaves_no_task_behind(self):
        """``tenant`` is client input, and each new name makes a lane.
        After one request on each of 50 new tenants over one
        connection, the loop holds no task beyond that connection's
        handler (when each lane started ``parallelism`` worker tasks
        that lived until ``stop()``, 101 tasks here), and the server
        holds no lane: one goes once it is idle, unless its tenant is
        ``"public"`` or named in ``tenant_policies``."""
        server = QueryServer(_seeded(TSDB()), port=0)
        q = Query("air.co2.ppm", 0, 4000)

        async def run():
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            for i in range(50):
                writer.write(
                    _request_line([q], id=i, tenant=f"t{i}").encode())
                assert json.loads(await reader.readline())["id"] == i
            tasks = asyncio.all_tasks() - {asyncio.current_task()}
            writer.close()
            await server.stop()
            await asyncio.wait(tasks, timeout=5)
            return len(tasks), len(server.stats()["tenants"])

        assert asyncio.run(run()) == (1, 0)

    def test_a_pipelining_client_starves_no_other_tenant(self):
        """Connection A on tenant ``a`` pipelines 200 lines the result
        cache answers whole, on the loop thread; connection B on tenant
        ``b`` sends one line once A's first reply is in.  B's reply is
        written before A's last: a handler holding a further line lets
        the other connections in between its requests."""
        server = QueryServer(_seeded(TSDB()), port=0)
        q = Query("air.co2.ppm", 0, 4000)
        written: list = []
        reply = QueryServer._reply

        def logged_reply(self, job, response):
            written.append(job.tenant)
            reply(self, job, response)

        async def run():
            await server.start()
            a_reader, a = await asyncio.open_connection(*server.address)
            b_reader, b = await asyncio.open_connection(*server.address)
            a.write(_request_line([q], tenant="a").encode())  # the miss
            await a_reader.readline()
            written.clear()
            a.write(_request_line([q], tenant="a").encode() * 200)
            await a_reader.readline()
            b.write(_request_line([q], tenant="b").encode())
            assert "results" in json.loads(await b_reader.readline())
            for _ in range(199):
                assert "results" in json.loads(await a_reader.readline())
            a.close()
            b.close()
            await server.stop()

        with mock.patch.object(QueryServer, "_reply", logged_reply):
            asyncio.run(run())
        assert written.count("a") == 200 and written.count("b") == 1
        assert written.index("b") < len(written) - 1
        assert server.stats()["cache"]["hits"] == 201

    def test_spill_admission_is_refused(self):
        # The region's spill goes to disk; a lane has none, so the
        # server offers block / drop-oldest only.
        from repro.cli import main

        with pytest.raises(ValueError, match="block or drop-oldest"):
            TenantPolicy(backpressure="spill")
        with pytest.raises(SystemExit):
            main(["serve", "--backpressure", "spill"])

    def test_a_grown_window_is_spliced_over_the_wire(self, store):
        """A request runs the refresher's one path: its repeat is the
        same bytes, and a grown window the result cache no longer holds
        is answered from the panel state — spliced, then cache-only —
        in a fresh run's bytes, ``scannedPoints`` included."""
        q = Query("air.co2.ppm", 0, 4000, downsample="10m-avg")
        grown = wire.encode_request(
            [Query("air.co2.ppm", 0, 5000, downsample="10m-avg")])
        line = json.dumps(wire.encode_request([q])) + "\n"
        with live_server(store) as server:
            assert len(set(_raw_lines(server.address, line, line))) == 1
            store.put("air.co2.ppm", 4500, 500.0,
                      {"node": "a", "city": "trondheim"})
            replies = []
            for _ in range(2):
                server.caching.cache.clear()  # answered from panel state
                replies += _raw_lines(server.address,
                                      json.dumps(grown) + "\n")
            stats = server.stats()["refresh"]
        want = json.dumps(wire.handle_request(store, grown)).encode() + b"\n"
        assert replies == [want, want]
        assert (stats["full_runs"], stats["incremental_runs"],
                stats["cache_only_runs"]) == (1, 1, 1)

    def test_plain_requests_report_their_panel_state_work(self, store):
        """``stats()["refresh"]`` counts the panel-state work of every
        request (at the parent a request without ``refresh`` counted it
        nowhere: all of these read 0)."""
        def panel(end, width=600):
            return Query("air.co2.ppm", 0, end, downsample=f"{width}s-avg")

        with live_server(store) as server, \
                QueryClient(*server.address) as client:
            client.request([panel(4000)])  # seeds the panel state
            store.put("air.co2.ppm", 4500, 500.0,
                      {"node": "a", "city": "trondheim"})
            client.request([panel(5000)])  # spliced
            # out of order: the held buckets are no longer final
            store.put("air.co2.ppm", 150, 7.0,
                      {"node": "a", "city": "trondheim"})
            client.request([panel(6000)])
            # one shape past what the panel table holds
            client.request([panel(4000, width)
                            for width in range(1, HELD_PANELS + 2)])
            stats = server.stats()["refresh"]
        assert stats["incremental_runs"] == 1
        assert stats["invalidated"] == 1
        assert stats["evicted"] == 2
        assert stats["batches"] == 4

    def test_client_remote_error_not_retried(self, store):
        with live_server(store) as server:
            with QueryClient(*server.address, retries=3) as client:
                with pytest.raises(wire.RemoteQueryError) as err:
                    client.request = _bad_version_request.__get__(client)
                    _decoded(client, [Query("air.co2.ppm", 0, 100)])
            stats = server.stats()
        assert err.value.error_type == "WireError"
        assert stats["requests"] == 1  # one answer, zero retries

    def test_an_over_limit_line_is_answered_and_the_connection_lives(self):
        """A request line longer than the server reads is one request
        and one error, answered in band; the next line on the same
        connection is served."""
        wall = [Query("air.co2.ppm", 0, 4000 + i) for i in range(2000)]
        huge = json.dumps(wire.encode_request(wall)) + "\n"
        assert len(huge) > MAX_LINE_BYTES
        good = json.dumps(wire.encode_request(wall[:1])) + "\n"
        with live_server(_seeded(TSDB())) as server:
            refused, served = _raw_exchange(server.address, huge, good)
            with QueryClient(*server.address, retries=2) as client:
                with pytest.raises(wire.RemoteQueryError) as err:
                    _decoded(client, wall[:1000])
                assert "results" in client.request(wall[:1])
            stats = server.stats()
        assert refused["error"]["type"] == "WireError"
        assert f"{MAX_LINE_BYTES}-byte limit" in refused["error"]["message"]
        assert "results" in served
        assert err.value.error_type == "WireError"
        assert (stats["requests"], stats["errors"]) == (4, 2)

    def test_client_exhausts_retries_against_dead_port(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = QueryClient("127.0.0.1", dead_port, retries=1,
                             backoff=0.001, timeout=0.5)
        with pytest.raises(OSError):
            client.request([Query("m", 0, 1)])


def _client_lines(draw, tenant):
    """One connection's lines on ``tenant``'s lane: (kind, request id,
    line) each."""
    def line(kind, i):
        if kind == "junk":
            return "not json\n"
        envelope = {"id": i, "tenant": tenant}
        if kind == "catalog":
            return json.dumps({"version": wire.WIRE_VERSION,
                               "catalog": {"op": "metrics"}, **envelope}) + "\n"
        if kind == "unknown field":
            envelope["refresh"] = True
        query = Query("air.co2.ppm", 0, draw(st.sampled_from((1200, 4000))),
                      downsample=draw(st.sampled_from((None, "10m-avg"))))
        return _request_line([query], **envelope)

    kinds = draw(st.lists(
        st.sampled_from(("query",) * 3 + ("junk", "unknown field", "catalog")),
        min_size=1, max_size=8))
    return [(kind, i, line(kind, i)) for i, kind in enumerate(kinds)]


def _reply_fits(kind, i, reply, may_drop):
    """Is ``reply`` one that line ``i`` of ``kind`` may be answered?"""
    if kind == "junk":
        return reply["error"]["type"] == "WireError" and "id" not in reply
    if reply.get("id") != i:
        return False
    if may_drop and reply.get("error", {}).get("type") == "Overloaded":
        return True
    if kind == "unknown field":
        return reply["error"]["message"] == (
            "unknown request fields: ['refresh']")
    return ("catalog" if kind == "catalog" else "results") in reply


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_one_line_in_flight_per_connection(data):
    """Several connections each pipeline a drawn mix of lines — queries,
    malformed lines and catalog requests — and read their replies at a
    drawn pace, then half-close: every line gets exactly one reply, in
    the order sent, and no connection ever holds more than one line
    admitted and unanswered."""
    draw = data.draw
    backpressure = draw(st.sampled_from(("block", "drop-oldest")))
    policy = TenantPolicy(max_pending=draw(st.integers(1, 3)),
                          backpressure=backpressure,
                          parallelism=draw(st.integers(1, 2)))
    # per connection: its lines, and how many replies it reads after each
    clients = []
    for _ in range(draw(st.integers(2, 4))):
        lines = _client_lines(draw, draw(st.sampled_from(("public", "t1"))))
        clients.append((lines, draw(st.lists(
            st.integers(0, 2), min_size=len(lines), max_size=len(lines)))))
    # per connection handler (the task that runs its requests): how many
    # of its requests hold the gate, admitted and not let go
    in_flight: dict = {}
    peak = [0]
    enter, leave = _Lane.enter, _Lane.leave

    async def counted_enter(lane):
        task = asyncio.current_task()
        in_flight[task] = in_flight.get(task, 0) + 1
        peak[0] = max(peak[0], in_flight[task])
        if not await enter(lane):  # dropped: answered, never run
            in_flight[task] -= 1
            return False
        return True

    def counted_leave(lane):
        in_flight[asyncio.current_task()] -= 1
        leave(lane)

    def one_client(address, lines, pace, out):
        with socket.create_connection(address, timeout=10) as sock, \
                sock.makefile("rb") as file:
            read = 0
            for (_, i, line), n in zip(lines, pace):
                sock.sendall(line.encode())
                for _ in range(min(n, i + 1 - read)):
                    out.append(json.loads(file.readline()))
                    read += 1
            sock.shutdown(socket.SHUT_WR)
            out.extend(json.loads(reply) for reply in file)

    replies = [[] for _ in clients]
    with mock.patch.object(_Lane, "enter", counted_enter), \
            mock.patch.object(_Lane, "leave", counted_leave), \
            live_server(_seeded(TSDB()), default_policy=policy) as server:
        threads = [threading.Thread(target=one_client,
                                    args=(server.address, *client, out))
                   for client, out in zip(clients, replies)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        stats = server.stats()
    for (lines, _), got in zip(clients, replies):
        assert len(got) == len(lines)
        for (kind, i, _), reply in zip(lines, got):
            assert _reply_fits(kind, i, reply, backpressure == "drop-oldest")
    assert peak[0] <= 1
    assert not any(in_flight.values())
    assert stats["requests"] == sum(len(lines) for lines, _ in clients)


def _bad_version_request(self, queries):
    """A client whose wire version drifted: server must answer in-band."""
    envelope = wire.encode_request(queries)
    envelope["version"] = 99
    line = json.dumps(envelope).encode() + b"\n"
    self.connect()
    self._sock.sendall(line)
    return json.loads(self._file.readline())


class TestCatalogService:
    """The series-metadata surface, end to end over TCP."""

    def test_catalog_over_the_wire(self, store):
        with live_server(store) as server:
            with QueryClient(*server.address) as c:
                assert _catalog(c, "metrics") == ["air.co2.ppm"]
                assert _catalog(c, "tag_keys", metric="air.co2.ppm") == [
                    "city", "node"]
                assert _catalog(
                    c, "tag_values", metric="air.co2.ppm", key="node"
                ) == ["a", "b"]
                assert _catalog(
                    c, "cardinality", metric="air.co2.ppm",
                    tags={"node": "*"},
                ) == 2
                assert _catalog(c, "tag_keys", metric="no.such.metric") == []

    def test_catalog_cache_hits_then_invalidates(self, store):
        with live_server(store) as server:
            with QueryClient(*server.address) as c:
                for _ in range(3):
                    assert _catalog(
                        c, "tag_values", metric="air.co2.ppm", key="node"
                    ) == ["a", "b"]
                stats = server.stats()["catalog_cache"]
                assert stats["hits"] == 2 and stats["misses"] == 1
                # A new series under the metric moves its generation:
                # the cached answer must be dropped, not served stale.
                store.put("air.co2.ppm", 0, 400.0,
                          {"node": "z", "city": "trondheim"})
                assert _catalog(
                    c, "tag_values", metric="air.co2.ppm", key="node"
                ) == ["a", "b", "z"]
                assert server.stats()["catalog_cache"]["invalidated"] == 1

    def test_whole_catalog_answers_track_any_metric_change(self, store):
        with live_server(store) as server:
            with QueryClient(*server.address) as c:
                assert _catalog(c, "metrics") == ["air.co2.ppm"]
                store.put("weather.temperature.c", 0, 3.0, {"city": "x"})
                assert _catalog(c, "metrics") == [
                    "air.co2.ppm", "weather.temperature.c"]

    def test_malformed_catalog_request_answered_in_band(self, store):
        with live_server(store) as server:
            (reply,) = _raw_exchange(
                server.address,
                json.dumps({"version": wire.WIRE_VERSION,
                            "catalog": {"op": "nope"}}) + "\n",
            )
            assert reply["error"]["type"] == "WireError"
            # ... and the connection stays usable afterwards.
            with QueryClient(*server.address) as c:
                assert _catalog(c, "metrics") == ["air.co2.ppm"]

    def test_max_match_series_guards_queries(self, store):
        with live_server(store, max_match_series=1) as server:
            with QueryClient(*server.address) as c:
                wide = Query("air.co2.ppm", 0, 4000, tags={"node": "*"})
                with pytest.raises(wire.RemoteQueryError) as err:
                    _decoded(c, [wide])
                assert err.value.error_type == "CardinalityLimitError"
                assert "matches 2 series" in err.value.message
                # Narrow queries under the limit still execute.
                (got,) = _decoded(c, [Query("air.co2.ppm", 0, 4000,
                                            tags={"node": "a"})])
                assert len(got.series) == 1

    def test_per_tenant_limit_overrides_server_wide(self, store):
        # One tenant's wildcard storms are capped per-lane; the limit
        # may be tighter *or* looser than the server's.
        wide = Query("air.co2.ppm", 0, 4000, tags={"node": "*"})
        policies = {
            "tight": TenantPolicy(max_match_series=1),
            "loose": TenantPolicy(max_match_series=10),
        }
        with live_server(store, max_match_series=10,
                         tenant_policies=policies) as server:
            with QueryClient(*server.address, tenant="tight") as c:
                with pytest.raises(wire.RemoteQueryError) as err:
                    _decoded(c, [wide])
                assert err.value.error_type == "CardinalityLimitError"
                assert "tenant's 1-series limit" in err.value.message
            # The capped tenant can still run narrow queries...
            with QueryClient(*server.address, tenant="tight") as c:
                (got,) = _decoded(c, [Query("air.co2.ppm", 0, 4000,
                                            tags={"node": "a"})])
                assert len(got.series) == 1
            # ...and other tenants are untouched by its cap.
            with QueryClient(*server.address, tenant="loose") as c:
                assert _decoded(c, [wide])[0].scanned_points == 24
            with QueryClient(*server.address) as c:
                assert _decoded(c, [wide])[0].scanned_points == 24
        # A looser tenant limit also relaxes a tight server-wide one.
        with live_server(store, max_match_series=1,
                         tenant_policies=policies) as server:
            with QueryClient(*server.address, tenant="loose") as c:
                assert _decoded(c, [wide])[0].scanned_points == 24
            with QueryClient(*server.address) as c:
                with pytest.raises(wire.RemoteQueryError) as err:
                    _decoded(c, [wide])
                assert "server's 1-series limit" in err.value.message

    def test_a_tenant_limit_equal_to_the_servers_is_named_the_tenants(self):
        """The error names where the limit came from, not whether it
        differs from the server-wide one (at the parent a tenant limit
        of 10 on a server whose limit is 10 was called the server's)."""
        store = _seeded(TSDB(), n=1, nodes="abcdefghijkl")
        wide = Query("air.co2.ppm", 0, 4000, tags={"node": "*"})
        policies = {"capped": TenantPolicy(max_match_series=10)}
        with live_server(store, max_match_series=10,
                         tenant_policies=policies) as server:
            for tenant, scope in (("capped", "tenant's"), (None, "server's")):
                with QueryClient(*server.address, tenant=tenant) as c:
                    with pytest.raises(wire.RemoteQueryError) as err:
                        _decoded(c, [wide])
                assert f"over the {scope} 10-series limit" in err.value.message

    def test_ingest_guard_error_type_matches_wire_contract(self):
        # The ingest-side guard raises the same error type the server
        # reports, so clients key on one name for both guard-rails.
        limited = _seeded(TSDB(max_tag_values=2))
        with pytest.raises(Exception) as err:
            limited.put("air.co2.ppm", 0, 1.0,
                        {"node": "c", "city": "trondheim"})
        assert type(err.value).__name__ == "CardinalityLimitError"


def _refused_port() -> int:
    """A port with nothing listening: bind, note, close."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestClientRetryPolicy:
    """Satellite: jittered backoff + total-elapsed deadline in the SDK."""

    def test_jitter_out_of_range_rejected(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="jitter"):
                QueryClient("127.0.0.1", 1, jitter=bad)

    def test_injected_rng_pins_the_jittered_delays(self, monkeypatch):
        """With ``rng`` injected, every backoff sleep is exact: the
        base exponential curve scaled by ``1 + jitter*(2*rng() - 1)``."""
        delays: list[float] = []
        monkeypatch.setattr(time, "sleep", delays.append)
        client = QueryClient(
            "127.0.0.1", _refused_port(), retries=3, backoff=0.1,
            jitter=0.5, rng=lambda: 1.0, timeout=0.5,
        )
        with pytest.raises(OSError):
            client.request([Query("m", 0, 10)])
        assert delays == pytest.approx([0.15, 0.3, 0.6])  # x1.5 each
        delays.clear()
        low = QueryClient(
            "127.0.0.1", _refused_port(), retries=2, backoff=0.1,
            jitter=0.5, rng=lambda: 0.0, timeout=0.5,
        )
        with pytest.raises(OSError):
            low.request([Query("m", 0, 10)])
        assert delays == pytest.approx([0.05, 0.1])  # x0.5 each

    def test_deadline_caps_the_whole_retry_sequence(self):
        """A huge backoff cannot block past the deadline: sleeps are
        clipped to the time remaining and retries stop when it's spent."""
        client = QueryClient(
            "127.0.0.1", _refused_port(), retries=50, backoff=10.0,
            jitter=0.0, deadline=0.2, timeout=0.5,
        )
        t0 = time.monotonic()
        with pytest.raises(OSError):
            client.request([Query("m", 0, 10)])
        assert time.monotonic() - t0 < 2.0  # not 10s, let alone 50 tries

    def test_no_deadline_keeps_full_backoff(self, monkeypatch):
        delays: list[float] = []
        monkeypatch.setattr(time, "sleep", delays.append)
        client = QueryClient(
            "127.0.0.1", _refused_port(), retries=4, backoff=0.1,
            jitter=0.0, timeout=0.5,
        )
        with pytest.raises(OSError):
            client.request([Query("m", 0, 10)])
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])


class TestGracefulStop:
    """Satellite: draining ``stop()`` answers every admitted request."""

    def test_stop_drains_in_flight_requests(self):
        store = _seeded(_SlowStore())
        q = Query("air.co2.ppm", 0, 4000, downsample="10m-avg")
        replies: list = []

        with live_server(store) as server:
            done = threading.Event()

            def one_slow_client():
                try:
                    with QueryClient(*server.address, timeout=30,
                                     retries=0) as c:
                        replies.append(c.request([q]))
                except Exception as exc:  # pragma: no cover - diagnostic
                    replies.append(exc)
                finally:
                    done.set()

            t = threading.Thread(target=one_slow_client)
            t.start()
            # Let the request get admitted (the slow store is executing),
            # then let teardown stop the server underneath it.
            time.sleep(0.2)
            assert server._lanes  # a lane exists => request admitted
        # live_server teardown ran server.stop() (drain=True): the
        # admitted request must still have been answered.
        assert done.wait(10)
        t.join(timeout=10)
        assert replies and isinstance(replies[0], dict), repr(replies)
        assert "results" in replies[0]

    def test_stopping_server_refuses_new_connections(self):
        store = _seeded(TSDB())
        with live_server(store) as server:
            address = server.address
            with QueryClient(*address, retries=0) as c:
                _decoded(c, [Query("air.co2.ppm", 0, 4000)])
        # After teardown the listener is gone.
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5).close()

    def test_hard_stop_is_still_available(self):
        """``drain=False`` preserves the old immediate-cancel behavior."""
        store = _seeded(_SlowStore())
        server = QueryServer(store, port=0)

        async def run():
            await server.start()
            await server.stop(drain=False)

        asyncio.run(run())  # returns promptly; nothing hangs

    def test_hard_stop_releases_a_half_closed_connection(self):
        """Half-closed connections wait for their admitted lines'
        replies; a hard stop abandons the queued ones, and no handler
        may wait for them forever."""
        store = _seeded(_SlowStore())
        policy = TenantPolicy(parallelism=1)
        server = QueryServer(store, port=0, default_policy=policy)
        line = _request_line([Query("air.co2.ppm", 0, 4000)]).encode()

        async def run():
            await server.start()
            writers = []
            for _ in range(4):  # one running, three queued
                _, writer = await asyncio.open_connection(*server.address)
                writer.write(line)
                writer.write_eof()
                writers.append(writer)
            while server.stats()["tenants"].get("public", {}).get("admitted", 0) < 4:
                await asyncio.sleep(0.01)
            await server.stop(drain=False)
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            stuck = set()
            if handlers:
                _, stuck = await asyncio.wait(handlers, timeout=5)
            for writer in writers:
                writer.close()
            return stuck

        assert asyncio.run(run()) == set()

    def test_hard_stop_releases_a_handler_parked_on_a_full_block_lane(self):
        """A ``block`` lane one deep: one request running and three
        handlers waiting their turn past ``max_pending``.  A hard stop
        ends every handler, running or waiting, within a second, and
        the lane's ``depth`` (its waiting requests) reads 0."""

        class Slower(TSDB):
            def _run_unique_batch(self, queries):
                time.sleep(0.2)
                return super()._run_unique_batch(queries)

        store = _seeded(Slower())
        policy = TenantPolicy(max_pending=1, parallelism=1)
        server = QueryServer(store, port=0, default_policy=policy)
        line = _request_line([Query("air.co2.ppm", 0, 4000)]).encode()

        async def run():
            await server.start()
            writers = []
            for _ in range(4):  # one running, three waiting
                _, writer = await asyncio.open_connection(*server.address)
                writer.write(line)
                writers.append(writer)
            while server.requests < 4:
                await asyncio.sleep(0.01)
            assert server.stats()["tenants"]["public"]["depth"] == 3
            await server.stop(drain=False)
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            _, stuck = await asyncio.wait(handlers, timeout=1)
            depth = server.stats()["tenants"]["public"]["depth"]
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
            for writer in writers:
                writer.close()
            return len(stuck), depth

        assert asyncio.run(run()) == (0, 0)

    def test_a_connection_accepted_as_stop_begins_is_closed(self):
        """The listener accepts a connection in the loop pass that also
        wakes the task calling ``stop()``: the accepted connection's
        transport is made one step later, by a task queued behind that
        wake-up.  Closing the server first made that transport fail to
        attach, half made, its socket never closed (parent: an
        ``unclosed transport`` warning on every run).  ``stop()`` lets
        it attach before closing, and its handler closes it."""
        server = QueryServer(_seeded(TSDB()), port=0)

        async def run():
            await server.start()
            # the handshake completes in the kernel: the listener is
            # readable at the loop's next pass
            client = socket.create_connection(server.address)
            woken = asyncio.Event()
            asyncio.get_running_loop().call_soon(woken.set)
            # set() runs in the next pass before the listener's accept,
            # so this task resumes ahead of the accepted connection's
            await woken.wait()
            await server.stop()
            client.close()
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=5)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            asyncio.run(run())
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []


# -- the encode-once reply path ---------------------------------------------

def _request_line(queries, **envelope):
    return json.dumps({**wire.encode_request(queries), **envelope}) + "\n"


class TestReplyPath:
    def test_unechoable_id_is_answered_and_the_lane_survives(self, store):
        """``json.loads`` accepts ``{"id": NaN}``; echoing it used to
        raise where the reply was written, and two such lines left every
        later request of the tenant admitted and never answered."""
        q = Query("air.co2.ppm", 0, 4000)
        bad = _request_line([q], id=7).replace('"id": 7', '"id": NaN')
        with live_server(store) as server:
            replies = _raw_exchange(
                server.address, bad, bad,
                bad.replace("NaN", "[1, {\"x\": -Infinity}]"),
                _request_line([q], id=7),
                _request_line([q], id=8),
            )
        for reply in replies[:3]:
            assert reply["error"]["type"] == "WireError"
            assert "'id'" in reply["error"]["message"] and "id" not in reply
        assert replies[3]["id"] == 7 and "results" in replies[3]
        # and the connection serves its next line
        assert replies[4]["id"] == 8 and "results" in replies[4]

    def test_connection_outlives_a_reply_that_cannot_be_written(
            self, store, monkeypatch):
        calls = []

        def reply_line(response, id_json=None):
            calls.append(id_json)
            if len(calls) == 1:
                raise RuntimeError("encoder on fire")
            return real(response, id_json)

        real = wire.reply_line
        monkeypatch.setattr(wire, "reply_line", reply_line)
        q = Query("air.co2.ppm", 0, 4000)
        policy = TenantPolicy(parallelism=1)
        with live_server(store, default_policy=policy) as server:
            with socket.create_connection(server.address, timeout=10) as sock, \
                    sock.makefile("rb") as file:
                sock.sendall((_request_line([q], id=1)
                              + _request_line([q], id=2)).encode())
                reply = json.loads(file.readline())
                stats = server.stats()
                # the connection serves its next line
                sock.sendall(_request_line([q], id=3).encode())
                after = json.loads(file.readline())
        assert reply["id"] == 2 and "results" in reply
        assert stats["requests"] == 2 and stats["errors"] == 1
        assert after["id"] == 3 and "results" in after

    def test_requests_counts_every_reply_sent(self, store):
        """``requests`` and ``errors`` are both counted on the loop
        thread, one per request line, so concurrent lanes cannot lose
        an increment: requests == replies sent."""
        replies: list = []

        def one_client(i):
            good = _request_line([Query("air.co2.ppm", 0, 4000)], id=1,
                                 tenant=f"t{i % 2}")
            lines = [good, "junk\n", good,
                     json.dumps({"version": 99, "queries": []}) + "\n", good]
            try:
                replies.extend(
                    _pipelined_exchange(server.address, *(lines * 5)))
            except Exception as exc:  # pragma: no cover - diagnostic
                replies.append(exc)

        with live_server(store) as server:
            threads = [threading.Thread(target=one_client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            stats = server.stats()
        assert all(isinstance(r, dict) for r in replies), replies
        assert stats["requests"] == len(replies) == 4 * 5 * 5
        assert stats["errors"] == sum("error" in r for r in replies) == 40


def _co2_wall(end):
    """Twelve panels over the ``store`` fixture's metric: folds across
    series and per node at four bucket widths."""
    return [
        Query("air.co2.ppm", 0, end, aggregator=agg, downsample=f"{w}m-{agg}",
              group_by=group_by)
        for w in (5, 10, 15, 30)
        for agg, group_by in (("avg", ()), ("max", ()), ("avg", ("node",)))
    ]


class TestLoopThreadAnswers:
    """A request the result cache answers whole never leaves the event
    loop's thread: it is looked up, encoded and sent there.  Only a
    request with a miss left crosses to a worker thread, once."""

    @staticmethod
    def _count_jobs(server):
        """Wrap ``server._threads.run``: the list of jobs it was handed."""
        jobs = []
        real = server._threads.run

        async def run(fn, *args):
            jobs.append(fn)
            return await real(fn, *args)

        server._threads.run = run
        return jobs

    def test_an_all_hit_request_makes_no_worker_job(self, store):
        """Its bytes are the worker's answer to the same request (at the
        parent the repeat was a second worker job)."""
        qs = _co2_wall(4000)
        line = _request_line(qs, id=3)
        with live_server(store) as server:
            jobs = self._count_jobs(server)
            (by_worker,) = _raw_lines(server.address, line)  # every panel misses
            assert len(jobs) == 1
            executors = list(server._threads._all)
            before = server.stats()
            (on_loop,) = _raw_lines(server.address, line)  # every panel hits
            after = server.stats()
            assert len(jobs) == 1
            assert server._threads._all == executors  # no thread made either
        assert on_loop == by_worker
        assert on_loop == json.dumps(
            {**wire.handle_request(store, wire.encode_request(qs)), "id": 3},
            allow_nan=False).encode() + b"\n"
        delta = {k: after["cache"][k] - before["cache"][k]
                 for k in ("hits", "misses")}
        assert delta == {"hits": 12, "misses": 0}
        assert after["refresh"]["batches"] - before["refresh"]["batches"] == 1

    def test_eleven_hits_and_a_miss_make_one_worker_job(
            self, store, monkeypatch):
        """The look-ups run on the loop thread, the miss on a worker, and
        every count once (at the parent every look-up ran on the worker)."""
        wall = _co2_wall(4000)
        looked_up_on = []
        real_lookup = ResultCache.lookup

        def lookup(cache, *args):
            looked_up_on.append(threading.current_thread().name)
            return real_lookup(cache, *args)

        with live_server(store) as server:
            _raw_lines(server.address, _request_line(wall[:11]))
            jobs = self._count_jobs(server)
            monkeypatch.setattr(ResultCache, "lookup", lookup)
            before = server.stats()
            (reply,) = _raw_lines(server.address, _request_line(wall))
            after = server.stats()
        assert len(jobs) == 1
        assert len(looked_up_on) == 12
        assert not any(name.startswith("query") for name in looked_up_on)
        delta = {k: after["cache"][k] - before["cache"][k]
                 for k in ("hits", "misses")}
        assert delta == {"hits": 11, "misses": 1}
        assert after["refresh"]["batches"] - before["refresh"]["batches"] == 1
        assert after["refresh"]["full_runs"] - before["refresh"]["full_runs"] == 1
        assert json.loads(reply) == wire.handle_request(
            store, wire.encode_request(wall))

    def test_a_write_between_the_phases_caches_nothing_stale(self, store):
        """The look-up phase answers the hits; a write lands; the run
        phase answers the miss.  Each entry is a fresh run's on one side
        of the write, and later requests see the write everywhere."""
        server = QueryServer(store)
        hit = Query("air.co2.ppm", 0, 4000, downsample="10m-avg")
        missed = Query("air.co2.ppm", 0, 4000, group_by=("node",))
        both = [hit, missed]
        _finish(server._look_up(_job([hit])))
        assert isinstance(server._look_up(_job([hit])), bytes)  # now cached

        def fresh():
            return wire.handle_request(store, wire.encode_request(both))

        answer = server._look_up(_job(both))
        assert callable(answer)  # a miss left for the run phase
        old = fresh()
        store.put("air.co2.ppm", 3000, 900.0,
                  {"node": "a", "city": "trondheim"})
        new = fresh()
        assert all(a != b for a, b in zip(old["results"], new["results"]))
        got = json.loads(answer())
        assert got["results"][0] == old["results"][0]  # looked up before it
        assert got["results"][1] in (old["results"][1], new["results"][1])
        for _ in range(2):  # neither the cache nor a panel kept a stale answer
            assert json.loads(_finish(server._look_up(_job(both)))) == new


def _job(queries):
    """A plain request as the server's lane hands it over."""
    return _Job(wire.encode_request(queries), None, None, "public", None)


def _finish(answer):
    """A look-up phase's answer, or what a worker thread makes of it."""
    return answer() if callable(answer) else answer


_ABSENT = object()  # no "id" key at all, as opposed to "id": null

_REQUEST_IDS = st.one_of(
    st.just(_ABSENT),
    st.none(),
    st.integers(-3, 2**40),
    st.text(max_size=5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(
        st.one_of(st.integers(0, 9), st.none(),
                  st.dictionaries(st.text(max_size=2), st.booleans(),
                                  max_size=2)),
        max_size=3),
)

_VALUES = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0)),
)


def _wall_panels(start, end):
    """Every result shape a reply can carry: plain, grouped, downsampled
    (gap-filled and not), rate, and a metric nothing was ever written
    under."""
    by_node = Query("m", start, end, downsample="10s-avg", group_by=("node",))
    only_a = Query("m", start, end, tags={"node": "a"}, downsample="10s-avg")
    return [
        Query("m", start, end),
        by_node,
        Query("m", start, end, aggregator="max", downsample="10s-count-zero"),
        Query("m", start, end, rate=True),
        only_a,
        Query("m", start, end, downsample="10s-avg"),
        Query("m", start, end, aggregator="sum", downsample="10s-avg",
              group_by=("node",)),
        Query("m", start, end, tags={"node": "a"}, group_by=("node",)),
        Query("never.written", start, end),
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@pytest.mark.parametrize("make_store", [TSDB, TSDB],
                         ids=["single", "sharded"])  # a retired layout's id
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_reply_lines_equal_dumps_of_the_dict_codec(make_store, data):
    """Every reply line is the bytes ``json.dumps`` of the dict codec
    gives on the innermost store — hits, misses, splices and errors —
    whatever was written, deleted, evicted or slid between requests."""
    inner = make_store()
    draw = data.draw
    now, nodes, window, picks, last = 0, ["a", "b"], (0, 0), [], None

    def exchange(sock, file, payload, request_id):
        envelope = dict(payload)
        if request_id is not _ABSENT:
            envelope["id"] = request_id
        sock.sendall(json.dumps(envelope).encode() + b"\n")
        line = file.readline()
        want = wire.handle_request(inner, payload)
        if request_id is not _ABSENT and request_id is not None:
            want = {**want, "id": request_id}
        assert line == json.dumps(want, allow_nan=False).encode() + b"\n"

    with live_server(inner, cache_capacity=3) as server:
        with socket.create_connection(server.address, timeout=10) as sock, \
                sock.makefile("rb") as file:
            for _ in range(draw(st.integers(3, 20))):
                # weighted towards append-then-ask-again, the steady
                # state the refresher splices in
                op = draw(st.sampled_from(
                    ("append",) * 4 + ("request",) * 6
                    + ("late", "retention", "churn", "repeat")))
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
                    last = (wire.encode_request([pool[i] for i in picks]),
                            draw(_REQUEST_IDS))
                    exchange(sock, file, *last)
                else:  # the identical request again
                    exchange(sock, file, *last)


class TestSeriesTagLifetime:
    """The digest a conditional reply takes lives on the result series,
    so the memory bound stays "capacity × result size": nothing outlives
    its entry or state."""

    @staticmethod
    def _encode(results):
        wire.encode_response_json(results, held=[None] * len(results),
                                  validator=entry_validator)
        return [weakref.ref(s) for res in results for s in res.series]

    @staticmethod
    def _with_tag(refs):
        gc.collect()
        return sum(r() is not None and cached_series_tag(r()) is not None
                   for r in refs)

    def test_tag_dies_with_its_cache_entry(self, store):
        caching = CachingStore(store, capacity=2)
        qs = [Query("air.co2.ppm", 0, 1000 * i, group_by=("node",))
              for i in (1, 2, 3, 4)]
        refs = [self._encode(caching.run_many([q])) for q in qs]
        assert all(len(r) == 2 for r in refs)  # two series per result
        # evicted: only the newest `capacity` results still hold a tag
        assert [self._with_tag(r) for r in refs] == [0, 0, 2, 2]
        # invalidated: a write to a matched series drops the entry on the
        # next lookup, and its tag with it
        store.put("air.co2.ppm", 100, 1.0, {"node": "a", "city": "trondheim"})
        refs.append(self._encode(caching.run_many([qs[3]])))
        assert [self._with_tag(r) for r in refs] == [0, 0, 2, 0, 2]
        # ... and a hit re-uses the tag instead of digesting again
        (hit,) = caching.run_many([qs[3]])
        assert all(cached_series_tag(s) is not None for s in hit.series)
        caching.clear()  # the cached answers and the panel state
        del hit
        assert sum(self._with_tag(r) for r in refs) == 0

    def test_tag_dies_with_its_panel_state(self):
        db = _seeded(TSDB())
        # a result cache of one: it holds no answer the panel state lets go
        refresher = CachingStore(db, capacity=1)
        refs = []
        for end in (4000, 5000, 6000):  # full, then two incremental runs
            q = Query("air.co2.ppm", 0, end, downsample="10m-avg",
                      group_by=("node",))
            refs.append(self._encode(refresher.run_many([q])))
            db.put("air.co2.ppm", end + 100, 500.0,
                   {"node": "a", "city": "trondheim"})
        assert refresher.stats.incremental_runs == 2
        # each replaced state took its result's tags with it
        assert [self._with_tag(r) for r in refs] == [0, 0, 2]
        # an out-of-order write drops the state outright on the next run
        db.put("air.co2.ppm", 150, 7.0, {"node": "a", "city": "trondheim"})
        refresher.run(Query("air.co2.ppm", 0, 7000, downsample="10m-avg",
                            group_by=("node",)))
        assert refresher.stats.invalidated == 1
        assert self._with_tag(refs[2]) == 0
