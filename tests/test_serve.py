"""Serving-layer tests: cache validity, incremental refresh, live server.

Three correctness contracts, in increasing integration order:

- :class:`~repro.serve.cache.CachingStore` answers are **byte-identical**
  to uncached ``run_many`` and invalidation is exact: a write to a
  matched series (on any shard) drops precisely the entries it can
  affect, a raced write is never stamped fresh;
- :class:`~repro.serve.refresh.IncrementalRefresher` output equals a
  full re-scan under arbitrary interleavings of appends and window
  slides (hypothesis), while actually taking the incremental path in
  steady state;
- the asyncio :class:`~repro.serve.server.QueryServer` serves N
  concurrent clients the same bytes the store produces, survives
  malformed requests without dropping the connection, and applies
  per-tenant admission control;
- the encode-once reply path: every reply **line** is byte-identical to
  ``json.dumps`` of the dict codec on the innermost store (hypothesis,
  hits / misses / refreshes / expressions / errors), and the encoded
  text dies with the cache entry or panel state that holds it.
"""

import asyncio
import contextlib
import gc
import json
import math
import socket
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    CachingStore,
    IncrementalRefresher,
    QueryClient,
    QueryServer,
    TenantPolicy,
)
from repro.serve.cache import ResultCache, cached_series_text, series_text
from repro.tsdb import Query, SeriesKey, ShardedTSDB, TSDB, expr, wire


def _seeded(store, n=12, nodes="ab"):
    for i in range(n):
        for node in nodes:
            store.put("air.co2.ppm", i * 300, 400.0 + i + ord(node),
                      {"node": node, "city": "trondheim"})
    return store


def _same_bytes(a, b):
    """Results are interchangeable iff their wire encodings are equal."""
    return wire.response_to_json([a]) == wire.response_to_json([b])


def _same_series(a, b):
    """Series-content equality through the wire encoding.

    ``scannedPoints`` is excluded: an incremental refresh honestly
    reports only the points its delta scanned — the *series* are what
    is guaranteed byte-identical.
    """
    return (wire.encode_response([a])["results"][0]["series"]
            == wire.encode_response([b])["results"][0]["series"])


@pytest.fixture(params=["single", "sharded"])
def store(request):
    return _seeded(TSDB() if request.param == "single" else ShardedTSDB(4))


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
            assert wire.response_to_json(got) == wire.response_to_json(want)
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
        refresher = IncrementalRefresher(db)
        q1 = Query("air.co2.ppm", 0, 4000, downsample="10m-avg")
        full = refresher.run(q1)
        db.put("air.co2.ppm", 4500, 500.0, {"node": "a", "city": "trondheim"})
        q2 = Query("air.co2.ppm", 0, 5000, downsample="10m-avg")
        inc = refresher.run(q2)
        assert refresher.stats.full_runs == 1
        assert refresher.stats.incremental_runs == 1
        assert inc.scanned_points < full.scanned_points
        assert _same_series(inc, db.run_many([q2])[0])

    def test_unchanged_window_is_cache_only(self):
        db = _seeded(TSDB())
        refresher = IncrementalRefresher(db)
        # end == the newest point: everything in-window is final history
        q = Query("air.co2.ppm", 0, 3300)
        first = refresher.run(q)
        second = refresher.run(q)
        assert refresher.stats.cache_only_runs == 1
        assert second.scanned_points == 0
        assert _same_series(first, second)

    def test_rate_always_runs_full(self):
        db = _seeded(TSDB())
        refresher = IncrementalRefresher(db)
        q = Query("air.co2.ppm", 0, 4000, rate=True)
        refresher.run(q)
        refresher.run(q)
        assert refresher.stats.full_runs == 2
        assert refresher.stats.incremental_runs == 0

    def test_out_of_order_write_invalidates(self):
        db = _seeded(TSDB())
        refresher = IncrementalRefresher(db)
        refresher.run(Query("air.co2.ppm", 0, 4000))
        # Lands *before* the series maximum: history is no longer final.
        db.put("air.co2.ppm", 150, 7.0, {"node": "a", "city": "trondheim"})
        q = Query("air.co2.ppm", 0, 5000)
        out = refresher.run(q)
        assert refresher.stats.invalidated == 1
        assert refresher.stats.incremental_runs == 0
        assert _same_series(out, db.run_many([q])[0])

    def test_incremental_run_extends_the_encoded_text(self):
        """Once a reply has encoded a panel, the next incremental runs
        hand over spliced text — equal to a from-scratch encode — and a
        panel nobody encodes gets none."""
        db = _seeded(TSDB())
        refresher = IncrementalRefresher(db)
        unread = IncrementalRefresher(db)
        for round_no, end in enumerate((4000, 5000, 6000, 6000, 7000)):
            q = Query("air.co2.ppm", 0, end, downsample="10m-avg",
                      group_by=("node",))
            (res,) = refresher.run_many([q])
            for s in res.series:
                # full run: nothing to extend; later runs: spliced text
                assert (cached_series_text(s) is None) == (round_no == 0)
                assert series_text(s) == wire.series_json(s)
            assert all(cached_series_text(s) is None
                       for s in unread.run(q).series)
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
        refresher = IncrementalRefresher(db)
        for agg in ("avg", "sum"):
            refresher.run(Query("m", 0, 20, aggregator=agg))
        db.put("m", 15, -0.0, {"node": "a"})
        for agg in ("avg", "sum"):
            q = Query("m", 0, 20, aggregator=agg)
            got, want = refresher.run(q).single(), db.run(q).single()
            assert b'"15": 0.0' in wire.series_json(want)
            assert wire.series_json(got) == wire.series_json(want)
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
        refresher = IncrementalRefresher(db)
        for agg in ("avg", "sum", "dev"):
            refresher.run(Query("m", 0, 20, aggregator=agg))
        for _ in range(20):  # enough draws that regrouping moves an ulp
            t = int(db.run(Query("m", 0, 10**6)).single().timestamps[-1]) + 10
            for node, v in zip(nodes, 10.0 ** rng.uniform(-3, 8, 25)):
                db.put("m", t, v, {"node": node})
            for agg in ("avg", "sum", "dev"):
                q = Query("m", 0, t + 5, aggregator=agg)
                got, want = refresher.run(q).single(), db.run(q).single()
                assert wire.series_json(got) == wire.series_json(want)
        assert refresher.stats.incremental_runs == 60

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_refresh_equals_full_rescan(self, data):
        """Any append/slide interleaving: refresher ≡ fresh run_many."""
        db = TSDB()
        refresher = IncrementalRefresher(db)
        agg = data.draw(st.sampled_from(("avg", "count", "max", "dev")))
        downsample = data.draw(
            st.sampled_from((None, "10s-avg", "10s-avg-zero", "10s-count")))
        group_by = data.draw(st.sampled_from(((), ("node",))))
        now = 0
        for _ in range(data.draw(st.integers(2, 6))):
            for _ in range(data.draw(st.integers(0, 15))):
                now += data.draw(st.integers(1, 9))
                db.put("m", now, float(data.draw(st.integers(-5, 5))),
                       {"node": data.draw(st.sampled_from("ab"))})
            start = data.draw(st.sampled_from(
                (0, max(0, now - 60), max(0, (now - 60) // 10 * 10))))
            end = now + data.draw(st.integers(0, 5))
            if end < start:
                continue
            q = Query("m", start, end, aggregator=agg,
                      downsample=downsample, group_by=group_by)
            got = refresher.run(q)
            want = db.run_many([q])[0]
            assert _same_series(got, want)


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
        # client has hung up see it, so that closing the loop leaves no
        # pending task (and its half-closed socket) to the collector.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            _, stuck = await asyncio.wait(handlers, timeout=1)
            for task in stuck:
                task.cancel()

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


def _pipelined_exchange(address, *lines):
    """Send every line up front, then collect one reply per line."""
    with socket.create_connection(address, timeout=10) as sock, \
            sock.makefile("rb") as file:
        sock.sendall(b"".join(
            line if isinstance(line, bytes) else line.encode()
            for line in lines))
        return [json.loads(file.readline()) for _ in lines]


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

        with live_server(store) as server:
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

    def test_malformed_lines_keep_connection_usable(self, store):
        request = wire.encode_request([Query("air.co2.ppm", 0, 4000)])
        good = json.dumps({**request, "id": 7}) + "\n"
        # envelope fields are checked, not coerced: each of these used
        # to turn the refresh path *on*
        bad_refresh = [json.dumps({**request, "refresh": value}) + "\n"
                       for value in ("false", "no", [0], 1, None)]
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
                json.dumps({**request, "refresh": False, "held": [None]})
                + "\n",
                json.dumps({**request, "refresh": True, "held": ["x" * 64]})
                + "\n",
                good,
            )
            stats = server.stats()
        errors, served = replies[:-3], replies[-3:]
        assert [r["error"]["type"] for r in errors] == ["WireError"] * 17
        for reply in errors[4:9]:
            assert "'refresh'" in reply["error"]["message"]
        for reply in errors[9:]:
            assert "'held'" in reply["error"]["message"]
        assert all("results" in r for r in served)
        assert [len(r.get("validators", ())) for r in served] == [1, 1, 0]
        assert served[2]["id"] == 7
        assert stats["refresh"]["full_runs"] == 1  # the one that asked

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
            replies = _pipelined_exchange(server.address, *([line] * 8))
            stats = server.stats()
        dropped = [r for r in replies if "error" in r]
        served = [r for r in replies if "results" in r]
        assert dropped and served  # overload answered, not wedged
        assert all(r["error"]["type"] == "Overloaded" for r in dropped)
        assert stats["tenants"]["public"]["dropped"] == len(dropped)

    def test_refresh_flag_routes_through_refresher(self, store):
        q = Query("air.co2.ppm", 0, 4000, downsample="10m-avg")
        want = store.run_many([q])[0]
        with live_server(store) as server:
            with QueryClient(*server.address) as client:
                first = client.run_many([q], refresh=True)
                second = client.run_many([q], refresh=True)
            stats = server.stats()
        assert stats["refresh"]["full_runs"] == 1
        assert (stats["refresh"]["incremental_runs"]
                + stats["refresh"]["cache_only_runs"]) == 1
        for decoded in (first[0], second[0]):
            assert list(decoded.series[0].values) == \
                list(want.series[0].slice.values)

    def test_client_remote_error_not_retried(self, store):
        with live_server(store) as server:
            with QueryClient(*server.address, retries=3) as client:
                with pytest.raises(wire.RemoteQueryError) as err:
                    client.request = _bad_version_request.__get__(client)
                    client.run_many([Query("air.co2.ppm", 0, 100)])
            stats = server.stats()
        assert err.value.error_type == "WireError"
        assert stats["requests"] == 1  # one answer, zero retries

    def test_client_exhausts_retries_against_dead_port(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = QueryClient("127.0.0.1", dead_port, retries=1,
                             backoff=0.001, timeout=0.5)
        with pytest.raises(OSError):
            client.run_many([Query("m", 0, 1)])


def _bad_version_request(self, queries, *, refresh=False):
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
                assert c.catalog("metrics") == ["air.co2.ppm"]
                assert c.catalog("tag_keys", metric="air.co2.ppm") == [
                    "city", "node"]
                assert c.catalog(
                    "tag_values", metric="air.co2.ppm", key="node"
                ) == ["a", "b"]
                assert c.catalog(
                    "cardinality", metric="air.co2.ppm",
                    tags={"node": "*"},
                ) == 2
                assert c.catalog("tag_keys", metric="no.such.metric") == []

    def test_catalog_cache_hits_then_invalidates(self, store):
        with live_server(store) as server:
            with QueryClient(*server.address) as c:
                for _ in range(3):
                    assert c.catalog(
                        "tag_values", metric="air.co2.ppm", key="node"
                    ) == ["a", "b"]
                stats = server.stats()["catalog_cache"]
                assert stats["hits"] == 2 and stats["misses"] == 1
                # A new series under the metric moves its generation:
                # the cached answer must be dropped, not served stale.
                store.put("air.co2.ppm", 0, 400.0,
                          {"node": "z", "city": "trondheim"})
                assert c.catalog(
                    "tag_values", metric="air.co2.ppm", key="node"
                ) == ["a", "b", "z"]
                assert server.stats()["catalog_cache"]["invalidated"] == 1

    def test_whole_catalog_answers_track_any_metric_change(self, store):
        with live_server(store) as server:
            with QueryClient(*server.address) as c:
                assert c.catalog("metrics") == ["air.co2.ppm"]
                store.put("weather.temperature.c", 0, 3.0, {"city": "x"})
                assert c.catalog("metrics") == [
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
                assert c.catalog("metrics") == ["air.co2.ppm"]

    def test_max_match_series_guards_queries(self, store):
        with live_server(store, max_match_series=1) as server:
            with QueryClient(*server.address) as c:
                wide = Query("air.co2.ppm", 0, 4000, tags={"node": "*"})
                with pytest.raises(wire.RemoteQueryError) as err:
                    c.run(wide)
                assert err.value.error_type == "CardinalityLimitError"
                assert "matches 2 series" in err.value.message
                # Narrow queries under the limit still execute.
                got = c.run(Query("air.co2.ppm", 0, 4000,
                                  tags={"node": "a"}))
                assert len(got.series) == 1
                # The guard also covers expression operands.
                from repro.tsdb import expr
                e = expr("a + b",
                         a=Query("air.co2.ppm", 0, 4000,
                                 tags={"node": "*"}),
                         b=Query("air.co2.ppm", 0, 4000,
                                 tags={"node": "a"}))
                with pytest.raises(wire.RemoteQueryError) as err:
                    c.run(e)
                assert err.value.error_type == "CardinalityLimitError"

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
                    c.run(wide)
                assert err.value.error_type == "CardinalityLimitError"
                assert "tenant's 1-series limit" in err.value.message
            # The capped tenant can still run narrow queries...
            with QueryClient(*server.address, tenant="tight") as c:
                got = c.run(Query("air.co2.ppm", 0, 4000,
                                  tags={"node": "a"}))
                assert len(got.series) == 1
            # ...and other tenants are untouched by its cap.
            with QueryClient(*server.address, tenant="loose") as c:
                assert c.run(wide).scanned_points == 24
            with QueryClient(*server.address) as c:
                assert c.run(wide).scanned_points == 24
        # A looser tenant limit also relaxes a tight server-wide one.
        with live_server(store, max_match_series=1,
                         tenant_policies=policies) as server:
            with QueryClient(*server.address, tenant="loose") as c:
                assert c.run(wide).scanned_points == 24
            with QueryClient(*server.address) as c:
                with pytest.raises(wire.RemoteQueryError) as err:
                    c.run(wide)
                assert "server's 1-series limit" in err.value.message

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
                c.run(Query("air.co2.ppm", 0, 4000))
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


# -- the encode-once reply path ---------------------------------------------

def _request_line(queries, **envelope):
    return json.dumps({**wire.encode_request(queries), **envelope}) + "\n"


class TestReplyPath:
    def test_unechoable_id_is_answered_and_the_lane_survives(self, store):
        """``json.loads`` accepts ``{"id": NaN}``; echoing it used to
        raise inside the lane worker, and two such lines left every
        later request of the tenant admitted and never answered."""
        q = Query("air.co2.ppm", 0, 4000)
        bad = _request_line([q], id=7).replace('"id": 7', '"id": NaN')
        with live_server(store) as server:
            replies = _raw_exchange(
                server.address, bad, bad,
                bad.replace("NaN", "[1, {\"x\": -Infinity}]"),
                _request_line([q], id=7),
            )
            workers = server._lanes["public"].workers
            assert len(workers) == 2
            assert not any(task.done() for task in workers)
        for reply in replies[:3]:
            assert reply["error"]["type"] == "WireError"
            assert "'id'" in reply["error"]["message"] and "id" not in reply
        assert replies[3]["id"] == 7 and "results" in replies[3]

    def test_lane_worker_outlives_a_reply_that_cannot_be_written(
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
            (worker,) = server._lanes["public"].workers
            assert not worker.done()
            stats = server.stats()
        assert reply["id"] == 2 and "results" in reply
        assert stats["requests"] == 2 and stats["errors"] == 1

    def test_refresh_serves_expression_panels(self, store):
        """``refresh=True`` used to hand ``ExprQuery`` panels to
        ``IncrementalRefresher.run`` and answer ``InternalError``."""
        def panels(end):
            a = Query("air.co2.ppm", 0, end, tags={"node": "a"},
                      downsample="10m-avg")
            b = Query("air.co2.ppm", 0, end, downsample="10m-avg")
            return [expr("a - b", a=a, b=b), b, expr("a * 2", a=a)]

        def series(reply):
            return [r["series"] for r in reply["results"]]

        with live_server(store) as server:
            with QueryClient(*server.address) as c:
                for end in (4000, 5000, 6000):
                    refreshed = c.request(panels(end), refresh=True)
                    assert refreshed["results"][0]["expr"] == "a - b"
                    assert series(refreshed) == series(c.request(panels(end)))
                    assert series(refreshed) == series(
                        wire.encode_response(store.run_many(panels(end))))
                    store.put("air.co2.ppm", end + 100, 450.0,
                              {"node": "a", "city": "trondheim"})
            refresh = server.stats()["refresh"]
        # operand b is also a panel: the planner refreshes it once
        assert refresh["full_runs"] == 2
        assert refresh["incremental_runs"] == 4

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
    st.sampled_from((math.nan, math.inf, -math.inf)),
)


def _wall_panels(start, end):
    """Every result shape a reply can carry: plain, grouped, downsampled
    (gap-filled and not), rate, expressions (broadcast, per-label, and —
    while more than one node exists — mismatched labels, an in-band
    ``QueryError``), and a metric nothing was ever written under."""
    by_node = Query("m", start, end, downsample="10s-avg", group_by=("node",))
    only_a = Query("m", start, end, tags={"node": "a"}, downsample="10s-avg")
    return [
        Query("m", start, end),
        by_node,
        Query("m", start, end, aggregator="max", downsample="10s-count-zero"),
        Query("m", start, end, rate=True),
        only_a,
        expr("a - b", a=only_a,
             b=Query("m", start, end, downsample="10s-avg")),
        expr("a * 2", a=by_node),
        expr("a + b", a=by_node,
             b=Query("m", start, end, tags={"node": "a"}, group_by=("node",))),
        Query("never.written", start, end),
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@pytest.mark.parametrize("make_store", [TSDB, lambda: ShardedTSDB(4)],
                         ids=["single", "sharded"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_reply_lines_equal_dumps_of_the_dict_codec(make_store, data):
    """Every reply line is the bytes ``json.dumps`` of the dict codec
    gives on the innermost store — hits, misses, refreshes, expressions
    and errors — whatever was written, deleted, evicted or slid between
    requests.  A refreshed reply reports the delta's ``scannedPoints``
    by design, so those are read from the reply before comparing."""
    inner = make_store()
    draw = data.draw
    now, nodes, window, picks, last = 0, ["a", "b"], (0, 0), [], None

    def exchange(sock, file, payload, request_id, refresh):
        envelope = dict(payload)
        if request_id is not _ABSENT:
            envelope["id"] = request_id
        if refresh:
            envelope["refresh"] = True
        sock.sendall(json.dumps(envelope).encode() + b"\n")
        line = file.readline()
        want = wire.handle_request(inner, payload)
        if refresh and "results" in want:
            for ours, theirs in zip(want["results"],
                                    json.loads(line)["results"]):
                ours["scannedPoints"] = theirs["scannedPoints"]
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
                            draw(_REQUEST_IDS),
                            draw(st.sampled_from((True, True, False))))
                    exchange(sock, file, *last)
                else:  # the identical request again
                    exchange(sock, file, *last)


class TestEncodedTextLifetime:
    """The text lives on the result series, so the memory bound stays
    "capacity × result size": nothing outlives its entry or state."""

    @staticmethod
    def _encode(results):
        wire.encode_response_json(results, series_json=series_text)
        return [weakref.ref(s) for res in results for s in res.series]

    @staticmethod
    def _with_text(refs):
        gc.collect()
        return sum(r() is not None and cached_series_text(r()) is not None
                   for r in refs)

    def test_text_dies_with_its_cache_entry(self, store):
        caching = CachingStore(store, capacity=2)
        qs = [Query("air.co2.ppm", 0, 1000 * i, group_by=("node",))
              for i in (1, 2, 3, 4)]
        refs = [self._encode(caching.run_many([q])) for q in qs]
        assert all(len(r) == 2 for r in refs)  # two series per result
        # evicted: only the newest `capacity` results still hold text
        assert [self._with_text(r) for r in refs] == [0, 0, 2, 2]
        # invalidated: a write to a matched series drops the entry on the
        # next lookup, and its text with it
        store.put("air.co2.ppm", 100, 1.0, {"node": "a", "city": "trondheim"})
        refs.append(self._encode(caching.run_many([qs[3]])))
        assert [self._with_text(r) for r in refs] == [0, 0, 2, 0, 2]
        # ... and a hit re-uses the text instead of encoding again
        (hit,) = caching.run_many([qs[3]])
        assert all(cached_series_text(s) is not None for s in hit.series)
        caching.cache.clear()
        del hit
        assert sum(self._with_text(r) for r in refs) == 0

    def test_text_dies_with_its_panel_state(self):
        db = _seeded(TSDB())
        refresher = IncrementalRefresher(db)
        refs = []
        for end in (4000, 5000, 6000):  # full, then two incremental runs
            q = Query("air.co2.ppm", 0, end, downsample="10m-avg",
                      group_by=("node",))
            refs.append(self._encode(refresher.run_many([q])))
            db.put("air.co2.ppm", end + 100, 500.0,
                   {"node": "a", "city": "trondheim"})
        assert refresher.stats.incremental_runs == 2
        # each replaced state took its result's text with it
        assert [self._with_text(r) for r in refs] == [0, 0, 2]
        # an out-of-order write drops the state outright on the next run
        db.put("air.co2.ppm", 150, 7.0, {"node": "a", "city": "trondheim"})
        refresher.run(Query("air.co2.ppm", 0, 7000, downsample="10m-avg",
                            group_by=("node",)))
        assert refresher.stats.invalidated == 1
        assert self._with_text(refs[2]) == 0
