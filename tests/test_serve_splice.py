"""The splice path: a request whose window moved is answered from held
buckets plus head and tail edges, and nobody can tell.

- **equivalence** (hypothesis, over ``TSDB`` and the frozen e2e's
  ``ShardedTSDB(4)`` under ``CachingStore(DurableStore(ReplicatedStore(·)))``, driven
  through the server's one request path): whatever window the next request
  names — moved forward, backward, off the bucket grid, shrunk, or two
  windows of one panel shape in one request — and whatever was appended, written late, deleted or
  churned in between, the reply text — from the server's look-up phase
  and, when a miss is left, its run phase, with exact repeats drawn so
  replies the look-up phase answers whole are held to it too — is
  ``encode_response_json`` of
  the innermost store's ``run_many``, ``scannedPoints`` included; rounds
  of requests with nothing written between them are drawn explicitly,
  so *quiet* panels (held buckets kept to the held end) run on every
  layout, and so is one window asked before and after an append inside
  it, which a quiet panel must not be taken for, and live rounds — the
  start fixed, a write, the end moved to it, ask again — whose cuts
  cross the bucket grid, so the kept points counted off the panel state
  are checked against a fresh run's;
- **a write racing a quiet splice**: an append past the boundary or a
  late point, landed inside the request's bracket, leaves a reply that
  a fresh run gives on one side of the write, keeps the raced splice
  out of the result cache, and is seen by the next request; a lagging
  series caught up mid-splice is answered a fresh run too (no held
  bucket past the boundary is kept beside an edge the write can reach);
- **concurrent panel state**: two clients sliding the same twelve
  panels on one server at once, with and without a writer between
  rounds, are each answered what the innermost store answers.
"""

import threading
from dataclasses import replace

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import CachingStore, QueryClient, QueryServer
from repro.serve.cache import ValidatorView
from repro.tsdb import Query, QueryError, SeriesKey, ShardedTSDB, TSDB, wire
from test_serve import _VALUES, _finish, _job, _wall_panels, live_server
from test_serve_conditional import (
    HISTORY_MINUTES,
    METRICS,
    MINUTE,
    NODES,
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


#: ``_panels``' shapes a splice may answer: no ``rate``, no undownsampled
#: tag filter, no metric never written.
_SPLICEABLE = (0, 1, 2, 4, 5, 6, 9)


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
    """What the server answers a plain request with: its look-up phase,
    as the loop thread runs it, then — only if a miss is left — the run
    phase a worker thread would run."""
    return _finish(server._look_up(_job(queries)))


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
    inner = _make_inner(layout)
    now, nodes, window = 0, ["a", "b"], (0, 0)
    with _stack(inner) as stack:
        server = QueryServer(
            stack, cache_capacity=draw(st.sampled_from((1, 3, 128))))

        def ask(queries=None):
            """A plain request: ``queries``, or shapes over the slid window."""
            nonlocal window
            if queries is None:
                window = _slide(draw, window, now)
                pool = _panels(*window)
                queries = [pool[i] for i in draw(st.lists(
                    st.integers(0, len(pool) - 1), min_size=1, max_size=5))]
                if draw(st.booleans()):  # a second window of some shapes
                    other = _panels(*_slide(draw, window, now))
                    queries += [other[i] for i in draw(st.lists(
                        st.integers(0, len(other) - 1), max_size=3))]
            want = _inner_reply(inner, queries)
            assert _plain(server, queries) == want
            if draw(st.booleans()):  # an exact repeat: hits, where still cached
                assert _plain(server, queries) == want

        for _ in range(draw(st.integers(3, 25))):
            op = draw(st.sampled_from(
                ("append",) * 4 + ("request",) * 4 + ("quiet",) * 2
                + ("live",) * 2 + ("late", "retention", "churn", "fill")))
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
            elif op == "fill":  # one window, before and after an append in it
                window = (min(window[0], now), now + draw(st.integers(1, 5)))
                pool = _panels(*window)
                queries = [pool[i] for i in draw(st.lists(
                    st.sampled_from(_SPLICEABLE), min_size=1, max_size=5))]
                ask(queries)
                now = draw(st.integers(now + 1, window[1]))
                stack.put("m", now, draw(_VALUES),
                          {"node": draw(st.sampled_from(nodes))})
                ask(queries)
            elif op == "quiet":  # a round with nothing written between
                for _ in range(draw(st.integers(2, 4))):
                    ask()
            elif op == "live":  # start fixed: write, move the end, ask
                shapes = draw(st.lists(
                    st.sampled_from(_SPLICEABLE), min_size=1, max_size=5))
                for _ in range(draw(st.integers(2, 8))):
                    now += draw(st.integers(1, 9))
                    for node in draw(st.lists(st.sampled_from(nodes),
                                              min_size=1, unique=True)):
                        stack.put("m", now, draw(_VALUES), {"node": node})
                    window = (window[0], max(window[1], now))
                    pool = _panels(*window)
                    ask([pool[i] for i in shapes])
            else:
                ask()


# -- a start sliding through the bucket grid --------------------------------

#: One "minute" of the sliding property: a start moves by ``STEP``
#: seconds, so it crosses a 60 s bucket every sixth move and a 120 s one
#: every twelfth.
STEP = 10


def _sliding(start, end):
    """Splice-safe panels over two bucket widths: folds and order
    statistics across series, per node, and a gap-filled count."""
    return [
        Query("m", start, end, downsample="60s-avg"),
        Query("m", start, end, aggregator="dev", downsample="120s-max"),
        Query("m", start, end, downsample="60s-avg", group_by=("node",)),
        Query("m", start, end, aggregator="count", downsample="60s-sum-zero"),
        Query("m", start, end, aggregator="p95", downsample="120s-first"),
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in numpy
@pytest.mark.parametrize("layout", ["single", "sharded"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_property_a_sliding_start_is_answered_as_the_inner_store(layout, data):
    """A start sliding a minute at a time — inside a bucket (the kept
    points counted off the held answer), onto the bucket grid, across
    it, now and then back — with writes drawn between the moves: an
    append, a late point, a retention delete, a series whose last point
    lags the start.  Every reply is the innermost store's,
    ``scannedPoints`` included."""
    draw = data.draw
    inner = _make_inner(layout)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes, now = ["a", "b", "c"], 900
    with _stack(inner) as stack:
        for node in nodes:
            ts = np.arange(0, now + 1, STEP)
            values = rng.normal(400.0, 25.0, ts.shape[0])
            odd = rng.random(ts.shape[0]) < 0.1
            values[odd] = rng.choice([np.nan, -0.0, np.inf, -np.inf], int(odd.sum()))
            for t, v in zip(ts.tolist(), values.tolist()):
                stack.put("m", t, v, {"node": node})
        server = QueryServer(
            stack, cache_capacity=draw(st.sampled_from((1, 128))))
        # an end past the last point, or below it on both bucket grids
        # (no write then needs a tail: only the validators tell a bucket
        # a late point or a delete reshaped)
        start = draw(st.integers(0, 20)) * STEP
        end = draw(st.sampled_from((now + 5 * STEP, 719, 479)))

        def ask():
            queries = _sliding(start, end)
            want = _inner_reply(inner, queries)
            assert _plain(server, queries) == want
            if draw(st.booleans()):  # an exact repeat: hits, where still cached
                assert _plain(server, queries) == want

        ask()
        for _ in range(draw(st.integers(4, 24))):
            op = draw(st.sampled_from(
                ("minute",) * 8 + ("grid", "across", "back", "end")
                + ("append", "late", "retention", "lag")))
            if op == "minute":
                start += STEP
            elif op in ("grid", "across"):  # onto the next 60 s bucket
                start = start // 60 * 60 + 60 + (STEP if op == "across" else 0)
            elif op == "back":  # a full run, its state seeded afresh
                start = max(0, start - draw(st.integers(1, 12)) * STEP)
            elif op == "end":
                end += draw(st.sampled_from((0, STEP, 120)))
            elif op == "append":
                now += STEP
                for node in draw(st.lists(st.sampled_from(nodes), min_size=1,
                                          unique=True)):
                    stack.put("m", now, draw(_VALUES), {"node": node})
                continue
            elif op == "late":  # out of order, or a duplicate instant
                stack.put("m", draw(st.integers(max(0, start - 60), now)),
                          draw(_VALUES), {"node": draw(st.sampled_from(nodes))})
                continue
            elif op == "retention":
                stack.delete_before(draw(st.integers(0, start + 60)))
                continue
            else:  # a new series whose last point lies before the start
                nodes.append(f"n{len(nodes)}")
                stack.put("m", draw(st.integers(0, start)), draw(_VALUES),
                          {"node": nodes[-1]})
                continue
            end = max(start, end)
            ask()


# -- a write racing a quiet splice ------------------------------------------

def _encoded(results) -> bytes:
    return wire.encode_response_json(results)


def _heads(queries) -> list[Query]:
    """Each query over the bucket its start cuts."""
    out = []
    for q in queries:
        width = q.downsample.width
        out.append(replace(q, end=-(-q.start // width) * width - 1))
    return out


@pytest.mark.parametrize("make_store", [TSDB, lambda: ShardedTSDB(4)],
                         ids=["single", "sharded"])
@pytest.mark.parametrize("when", ["before_scans", "after_scans"])
@pytest.mark.parametrize("write", ["append", "late"])
def test_a_write_racing_a_quiet_splice(history, make_store, when, write,  # noqa: F811
                                       monkeypatch):
    """Nothing written since the held answer: a moved start re-runs its
    heads alone and keeps every held bucket, the last one included.  A
    write lands in that last bucket inside the request's bracket — in
    the wrapped store's ``_run_unique_batch``, before the heads' scans
    or after them:

    - an *append* past the boundary (a pure append: no reshape) misses
      the kept bucket, so the reply is a fresh run's *before* the write;
      the cache refuses it (the series' generation moved), and the next
      request sees the counter moved and re-runs the written panels'
      tails from the boundary cut;
    - a *late* point (out of order: a reshape) fails the after-bracket,
      so the written panels are re-run in full in a bracket of their own
      and the reply is a fresh run's *after* the write; the raced splice
      is never cached, what is cached is that re-run.
    """
    inner = make_store()
    inner.put_batch(history)
    last = (HISTORY_MINUTES - 1) * MINUTE  # every series' last point
    end = last + 10 * MINUTE  # the held end, past the boundary
    written = METRICS[0]
    t = {"append": last + 30, "late": last - 30}[write]
    batches, pending = [], [when]
    with _stack(inner) as stack:
        caching = refresher = CachingStore(stack)
        refresher.run_many(_dashboard(0, end))  # seeds panel state

        def land():
            pending.clear()
            caching.put(written, t, -1.0, {"city": "trondheim", "node": NODES[3]})

        real = stack._run_unique_batch

        def uncached(queries):
            batches.append(list(queries))
            if pending == ["before_scans"]:
                land()
            out = real(queries)
            if pending:
                land()
            return out

        monkeypatch.setattr(stack, "_run_unique_batch", uncached)
        moved = _dashboard(MINUTE, end)
        before = _encoded(inner.run_many(moved))
        got = refresher.run_many(moved)
        after = _encoded(inner.run_many(moved))
        assert before != after  # the write is in the window
        assert batches[0] == _heads(moved)  # a quiet wall: heads, no tail
        ours = [q.metric == written for q in moved]
        view = ValidatorView(caching)
        cached = [caching.cache.lookup(view, q) for q in moved]
        if write == "append":
            assert _encoded(got) == before
            assert len(batches) == 1
            assert caching.cache.stats.skipped == sum(ours)
            assert [c is None for c in cached] == ours
        else:
            assert _encoded(got) == after
            # the written panels again, in full, after the write
            assert batches[1:] == [[q for q, o in zip(moved, ours) if o]]
            assert caching.cache.stats.skipped == 0
        assert all(c is None or c.series is g.series
                   for c, g in zip(cached, got))

        # the next request: the append's panels take the boundary path
        # (their counter moved), the late point's were re-seeded after it
        moved = _dashboard(2 * MINUTE, end)
        batches.clear()
        got = refresher.run_many(moved)
        assert _encoded(got) == _encoded(inner.run_many(moved))
        want = []
        for q, head in zip(moved, _heads(moved)):
            want.append(head)
            if write == "append" and q.metric == written:
                width = q.downsample.width
                want.append(replace(q, start=(last + 1) // width * width))
        assert batches == [want]


@pytest.mark.parametrize("moved", ["start", "end"])
def test_a_lagging_series_caught_up_mid_splice(moved, monkeypatch):
    """A series that stopped early pins the boundary far below the held
    end.  A quiet panel keeps held buckets past the boundary only where
    no racing write can reach them *and* an edge: the end did not move
    and the head (if any) ends at or below the boundary.  Here it does
    not — the head or the tail lies past the lagging series' last point
    — and one batch that catches the series up lands between the reads
    before the scans and the scans, in the edge and in the buckets above
    the boundary at once; the reply is still a fresh run's."""
    inner = TSDB()
    for t in range(0, 601, 10):
        inner.put("m", t, float(t % 70), {"node": "a"})
        if t <= 200:
            inner.put("m", t, float(t % 30), {"node": "b"})
    refresher = CachingStore(inner)
    panel = Query("m", 0, 600, downsample="60s-avg")
    refresher.run_many([panel])  # boundary 200, held end 600
    query = {"start": replace(panel, start=330),  # head [330, 359]
             "end": replace(panel, end=660)}[moved]  # tail past the cut
    catch_up = [340, 350, 370, 380] if moved == "start" else [590, 610]
    real = inner._run_unique_batch

    def uncached(queries):
        while catch_up:
            inner.put("m", catch_up.pop(0), -5.0, {"node": "b"})
        return real(queries)

    before = _encoded(inner.run_many([query]))
    monkeypatch.setattr(inner, "_run_unique_batch", uncached)
    got = _encoded(refresher.run_many([query]))
    after = _encoded(inner.run_many([query]))
    assert before != after and got == after


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
        refresh = server.stats()["refresh"]
        assert refresh["incremental_runs"] + refresh["cache_only_runs"] > 0
