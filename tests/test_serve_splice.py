"""The plain splice path: a plain request whose window moved is answered
from held buckets plus head and tail edges, and nobody can tell.

- **equivalence** (hypothesis, over ``TSDB`` and ``ShardedTSDB(1/2/4/7)``
  under ``CachingStore(DurableStore(ReplicatedStore(·)))``, driven
  through the server's plain path): whatever window the next request
  names — moved forward, backward, off the bucket grid, shrunk, or two
  windows of one panel shape in one request, expression panels
  included — and whatever was appended, written late, deleted or
  churned in between, the reply text is ``encode_response_json`` of
  the innermost store's ``run_many``, ``scannedPoints`` included;
- **concurrent panel state**: two clients sliding the same twelve
  panels on one server at once, with and without a writer between
  rounds, are each answered what the innermost store answers.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import QueryClient, QueryServer
from repro.serve.server import _Job
from repro.tsdb import Query, QueryError, SeriesKey, ShardedTSDB, TSDB, wire
from test_serve import _VALUES, _wall_panels, live_server
from test_serve_conditional import (
    HISTORY_MINUTES,
    MINUTE,
    _dashboard,
    _make_inner,
    _minute,
    _stack,
    history,  # noqa: F401  (pytest fixture)
)


def _panels(start, end):
    """The reply shapes of the raw-socket property test, plus a second
    bucket width so heads and cuts fall on more than one grid."""
    return [*_wall_panels(start, end),
            Query("m", start, end, aggregator="max", downsample="30s-max",
                  group_by=("node",))]


def _slide(draw, window, now):
    """The next window: stay, move forward (on or off the grid), move
    back, restart, shrink or grow its end."""
    start, end = window
    start = draw(st.sampled_from((
        start, start + draw(st.integers(1, 25)), start + 10,
        max(0, start - draw(st.integers(1, 25))), 0,
        max(0, (now - 60) // 10 * 10))))
    end = draw(st.sampled_from((
        end, now + draw(st.integers(0, 5)), end - draw(st.integers(0, 15)))))
    return start, max(start, end)


def _plain(server, queries) -> bytes | dict:
    """What the server's executor answers a plain request with."""
    payload = wire.encode_request(queries)
    return server._execute(_Job(payload, False, None, None, "public", None, None))


def _inner_reply(inner, queries) -> bytes | dict:
    try:
        return wire.encode_response_json(inner.run_many(queries))
    except QueryError as exc:
        return wire.encode_error(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@pytest.mark.parametrize("layout", ["single", "sharded"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_plain_replies_are_the_inner_stores(layout, data):
    draw = data.draw
    inner = _make_inner(layout, draw)
    now, nodes, window = 0, ["a", "b"], (0, 0)
    with _stack(inner) as stack:
        server = QueryServer(
            stack, cache_capacity=draw(st.sampled_from((1, 3, 128))))
        for _ in range(draw(st.integers(3, 25))):
            op = draw(st.sampled_from(
                ("append",) * 4 + ("request",) * 6
                + ("late", "retention", "churn")))
            if op == "append":
                for _ in range(draw(st.integers(1, 12))):
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
                    stack.put("m", now, draw(_VALUES), {"node": nodes[-1]})
                else:  # a whole series goes away
                    stack.delete_series_before(
                        SeriesKey.make(
                            "m", {"node": draw(st.sampled_from(nodes))}),
                        now + 1)
            else:
                window = _slide(draw, window, now)
                pool = _panels(*window)
                queries = [pool[i] for i in draw(st.lists(
                    st.integers(0, len(pool) - 1), min_size=1, max_size=5))]
                if draw(st.booleans()):  # a second window of some shapes
                    other = _panels(*_slide(draw, window, now))
                    queries += [other[i] for i in draw(st.lists(
                        st.integers(0, len(other) - 1), max_size=3))]
                assert _plain(server, queries) == _inner_reply(inner, queries)


# -- concurrent panel state -------------------------------------------------

ROUNDS = 6


def _two_clients(server, round_queries, before_round=None):
    """Both clients send round ``r``'s request at once, ``ROUNDS`` times;
    returns each round's two replies."""
    barrier = threading.Barrier(2)
    replies = [[None, None] for _ in range(ROUNDS)]
    failures = []

    def client(k):
        try:
            with QueryClient(*server.address, timeout=30) as c:
                for r in range(ROUNDS):
                    if barrier.wait() == 0 and before_round is not None:
                        before_round(r)
                    barrier.wait()  # the round's write has landed
                    replies[r][k] = c.request(round_queries(r, k))
                    barrier.wait()  # both answered before the next write
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not failures and not any(t.is_alive() for t in threads)
    return replies


@pytest.mark.parametrize("layout", ["single", "sharded"])
def test_two_clients_slide_one_wall_at_once(history, layout):  # noqa: F811
    inner = TSDB() if layout == "single" else ShardedTSDB(4)
    inner.put_batch(history)
    end = (HISTORY_MINUTES - 1) * MINUTE
    with _stack(inner) as stack, live_server(stack) as server:
        # no writer: the clients race each other's panel state, one a
        # step ahead of the other, so windows move back as well
        def sliding(r, k):
            return _dashboard(MINUTE * (r + 1 + k) + 7 * k, end)

        for r, pair in enumerate(_two_clients(server, sliding)):
            for k, reply in enumerate(pair):
                want = wire.encode_response(inner.run_many(sliding(r, k)))
                assert reply["results"] == want["results"], (r, k)

        # a writer between rounds: each round is answered after its write
        # (later writes land past its window, so the inner store still
        # answers it the same)
        written = [end]

        def write(r):
            written.append(written[-1] + MINUTE)
            stack.put_batch(_minute(written[-1]))

        def growing(r, k):
            return _dashboard(MINUTE * (r + 1 + k), written[r + 1])

        rounds = _two_clients(server, growing, before_round=write)
        for r, pair in enumerate(rounds):
            for k, reply in enumerate(pair):
                want = wire.encode_response(inner.run_many(growing(r, k)))
                assert reply["results"] == want["results"], (r, k)
        assert server.stats()["cache"]["spliced"] > 0
