"""What one dashboard refresh costs, as counts — not clocks.

The serving stack from public constructors::

    CachingStore(DurableStore(ReplicatedStore(TSDB())))

with the e2e wall (12 panels over 4 metrics x 25 nodes) and one minute
appended before each refresh, and counting wrappers around what a
refresh request should do *once*: read a series' last point (once per
filter, however many panels share it), plan the deltas, parse a
downsample spec — and what it should not do at all: insert a delta into
the result cache, whose entries no later request can ask for, or match
a filter, walk the catalog's postings or look a series up while no
series was created or removed under its metric (the catalog keeps each
filter's resolution; one new series re-resolves its filter alone, once).  A plain
request served from the cache, and an append-only refresh, check one
counter per metric and read no series' own counters unless something
under the metric was written (reshaped).  A plain request whose window
start moved plans one batch of edges and aligns no more points than the
window's first and last buckets hold; with nothing written under a
panel's metric since its held answer (a *quiet* panel) that batch holds
its head alone, and no series' last point is read.  A start that moves
on inside the bucket its last head was scanned in counts the kept
buckets' points off the held answer: no scan view beyond the heads'.
Every count is deterministic; the replies are checked against the
innermost store.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro.tsdb.interface as interface_module
import repro.tsdb.plan as plan_module
from repro.replication import ReplicatedStore
from repro.serve import CachingStore
from repro.serve.cache import ResultCache, ValidatorView
from repro.tsdb import BatchBuilder, DurableStore, Query, TSDB, wire
from repro.tsdb.catalog import SeriesCatalog
from repro.tsdb.downsample import Downsample
from repro.tsdb.series import SeriesStore
from test_serve_conditional import METRICS, MINUTE, _minute
from test_serve_splice import _heads

NODES = tuple(f"ctt-{i:02d}" for i in range(25))
SERIES = len(METRICS) * len(NODES)
HISTORY_MINUTES = 6 * 60
CITY = {"city": "trondheim"}


def _dashboard(start: int, end: int, metrics=METRICS) -> list[Query]:
    out = []
    for metric in metrics:
        out.append(Query(metric, start, end, tags=CITY, downsample="30m-avg"))
        out.append(Query(metric, start, end, tags=CITY, aggregator="dev",
                         downsample="1h-max"))
        out.append(Query(metric, start, end, tags=CITY, downsample="1h-avg",
                         group_by=("node",)))
    return out


def _spliced(caching) -> int:
    """Misses answered from held panel state plus edges."""
    return caching.stats.incremental_runs + caching.stats.cache_only_runs


def _reply(results) -> bytes:
    """The reply text, ``scannedPoints`` included."""
    return wire.encode_response_json(results)


class _Counts:
    """Counting wrappers under the whole stack (the innermost store's
    ``_series`` and catalog) and at the seams a refresh crosses."""

    def __init__(self, monkeypatch) -> None:
        self.resolved: Counter = Counter()  # series key -> _series calls
        self.matched: Counter = Counter()  # filter -> catalog matches
        self.postings = 0  # postings walks (SeriesCatalog._match_set)
        self.planned: list[int] = []  # planner batches, by size
        self.cache_batches: list[int] = []  # batches through the cache
        self.inserts = 0
        self.generations: Counter = Counter()  # series key -> generation reads
        self.reshapes: Counter = Counter()  # series key -> reshape reads
        self.latest: Counter = Counter()  # series key -> series_latest reads
        self.counters: Counter = Counter()  # (counter, metric) -> counter-cell reads
        self.views = 0  # series scan views opened, planner and panel state
        real_series = TSDB._series
        real_match = SeriesCatalog.match
        real_match_set = SeriesCatalog._match_set
        real_plan = interface_module.run_unique_batch
        real_cached = CachingStore._run_unique_batch
        real_insert = ResultCache.insert
        real_scan = SeriesStore.scan

        def _series(store, key):
            self.resolved[key] += 1
            return real_series(store, key)

        def match(catalog, metric, tags):
            self.matched[metric, tuple(sorted(tags.items()))] += 1
            return real_match(catalog, metric, tags)

        def match_set(catalog, metric, tags):
            self.postings += 1
            return real_match_set(catalog, metric, tags)

        def run_unique_batch(queries, resolve):
            self.planned.append(len(queries))
            return real_plan(queries, resolve)

        def cached(store, queries):
            self.cache_batches.append(len(queries))
            return real_cached(store, queries)

        def insert(cache, *args):
            self.inserts += 1
            return real_insert(cache, *args)

        def scan(series, *args):
            self.views += 1
            return real_scan(series, *args)

        def per_series(name, seen):
            real = getattr(ValidatorView, name)

            def read(view, key):
                seen[key] += 1
                return real(view, key)

            monkeypatch.setattr(ValidatorView, name, read)

        def per_metric(counter):
            real = getattr(SeriesCatalog, f"metric_{counter}_generation")

            def read(catalog, metric):
                self.counters[counter, metric] += 1
                return real(catalog, metric)

            monkeypatch.setattr(SeriesCatalog, f"metric_{counter}_generation", read)

        per_series("series_generation", self.generations)
        per_series("series_reshape_generation", self.reshapes)
        per_series("series_latest", self.latest)
        per_metric("write")
        per_metric("reshape")
        monkeypatch.setattr(TSDB, "_series", _series)
        monkeypatch.setattr(SeriesCatalog, "match", match)
        monkeypatch.setattr(SeriesCatalog, "_match_set", match_set)
        monkeypatch.setattr(interface_module, "run_unique_batch", run_unique_batch)
        monkeypatch.setattr(CachingStore, "_run_unique_batch", cached)
        monkeypatch.setattr(ResultCache, "insert", insert)
        monkeypatch.setattr(SeriesStore, "scan", scan)

    def reset(self) -> None:
        self.resolved.clear()
        self.matched.clear()
        self.postings = 0
        self.planned.clear()
        self.cache_batches.clear()
        self.inserts = 0
        self.generations.clear()
        self.reshapes.clear()
        self.latest.clear()
        self.counters.clear()
        self.views = 0


@pytest.fixture
def stack(tmp_path):
    inner = TSDB()
    builder = BatchBuilder()
    ts = np.arange(HISTORY_MINUTES, dtype=np.int64) * MINUTE
    for m, metric in enumerate(METRICS):
        for n, node in enumerate(NODES):
            builder.add_series(
                metric, ts, 400.0 + m + n / 8 + (ts // MINUTE) % 7,
                {**CITY, "node": node})
    caching = CachingStore(
        DurableStore(ReplicatedStore(inner), tmp_path / "wal.seg"))
    caching.put_batch(builder.build())
    yield inner, caching, (HISTORY_MINUTES - 1) * MINUTE
    caching.wrapped.close()


def _open_bucket(q: Query, last: int) -> Query:
    """``q`` from the bucket the last point of every series, ``last``,
    lies in: a tail from the boundary cut."""
    width = q.downsample.width
    return replace(q, start=(last + 1) // width * width)


def test_a_refresh_reads_each_validator_once_and_plans_once(stack, monkeypatch):
    inner, caching, end = stack
    counts = _Counts(monkeypatch)

    # the first request: every panel in full, as one planned batch under
    # the result cache, and every answer inserted into it
    caching.run_many(_dashboard(0, end))
    assert counts.cache_batches == []
    assert counts.planned == [12]
    assert counts.inserts == 12
    assert caching.stats.as_dict() == {
        "full_runs": 12, "incremental_runs": 0, "cache_only_runs": 0,
        "invalidated": 0, "evicted": 0, "batches": 1, "delta_queries": 0}

    edges: list[list[Query]] = []
    real = caching.wrapped._run_unique_batch

    def uncached(queries):
        edges.append(list(queries))
        return real(queries)

    monkeypatch.setattr(caching.wrapped, "_run_unique_batch", uncached)
    parses = Downsample.parse.cache_info().misses
    for i in range(1, 4):
        end += MINUTE
        caching.put_batch(_minute(end, METRICS, NODES))
        counts.reset()
        edges.clear()
        got = caching.run_many(_dashboard(0, end))
        # the series set is unchanged: every filter and its stores come
        # from the catalog's kept resolutions (parent: each series looked
        # up twice, each filter matched twice)
        assert counts.resolved == {} and counts.matched == {}
        # one planned batch of twelve deltas, under the result cache;
        # the answers, not the deltas, go into it
        assert counts.planned == [12]
        assert counts.cache_batches == []
        assert counts.inserts == 12
        assert Downsample.parse.cache_info().misses == parses
        assert caching.stats.batches == 1 + i
        assert caching.stats.delta_queries == 12 * i
        assert caching.stats.incremental_runs == 12 * i
        # the delta is the open bucket, not the six-hour window
        assert edges == [[_open_bucket(q, end - MINUTE)
                          for q in _dashboard(0, end)]]
        assert _reply(got) == _reply(inner.run_many(_dashboard(0, end)))
    assert len(caching.cache) == 12 * 4
    assert caching.cache.stats.misses == 12 * 4
    assert caching.cache.stats.evicted == 0


def test_a_live_refresh_resolves_each_filter_once_per_series_set(
        stack, monkeypatch):
    inner, caching, end = stack
    caching.run_many(_dashboard(0, end))
    every = [key for metric in METRICS for key in inner.series_for_metric(metric)]
    counts = _Counts(monkeypatch)
    for _ in range(3):
        end += MINUTE
        caching.put_batch(_minute(end, METRICS, NODES))
        counts.reset()
        got = caching.run_many(_dashboard(0, end))
        assert caching.stats.incremental_runs % 12 == 0
        # no postings walked (re-matching walked 32: two matches per filter)
        assert counts.postings == 0
        # one boundary per filter: each series' last point read once
        # (parent: 300 reads, once per panel)
        assert counts.latest == Counter(every)
        assert _reply(got) == _reply(inner.run_many(_dashboard(0, end)))

    # one new series under one metric: its filter alone is matched again,
    # once, and only its series are looked up, once each (parent: that
    # filter matched 9 times and every other twice, 60 postings walks,
    # 384 series look-ups)
    written = METRICS[0]
    end += MINUTE
    caching.put_batch(_minute(end, METRICS, NODES))
    caching.put(written, end, 1.0, {**CITY, "node": "ctt-99"})
    grown = inner.series_for_metric(written)
    counts.reset()
    got = caching.run_many(_dashboard(0, end))
    # one catalog, whatever the shard count: one match walks its postings
    # once
    assert counts.matched == Counter({(written, tuple(CITY.items())): 1})
    assert counts.postings == 1
    assert counts.resolved == Counter(grown)
    assert caching.stats.full_runs == 12 + 3
    assert _reply(got) == _reply(inner.run_many(_dashboard(0, end)))


def test_a_live_refresh_counts_its_kept_points_off_the_panel_state(
        stack, monkeypatch):
    """A live wall — the start fixed, a minute written, the end moved —
    counts the points under its kept buckets off the panel state: the
    last answer's points below its cut, final since.  A refresh whose
    cut did not move opens no scan view for them; one whose cut crossed
    a bucket opens views over the crossed buckets alone (parent: a view
    per matched series per panel over every kept bucket, 300 a wall)."""
    inner, caching, end = stack
    caching.run_many(_dashboard(0, end))
    end += MINUTE  # the first splice counts from the full run's window
    caching.put_batch(_minute(end, METRICS, NODES))
    caching.run_many(_dashboard(0, end))
    views: list[tuple[int, int]] = []
    real = SeriesStore.scan

    def scan(series, lo=None, hi=None):
        views.append((lo, hi))
        return real(series, lo, hi)

    monkeypatch.setattr(SeriesStore, "scan", scan)

    def cut(q: Query, last: int) -> int:
        width = q.downsample.width
        return (last + 1) // width * width

    for crossed in (True, False):
        last, end = end, end + MINUTE
        caching.put_batch(_minute(end, METRICS, NODES))
        views.clear()
        got = caching.run_many(_dashboard(0, end))
        seen = list(views)
        assert _reply(got) == _reply(inner.run_many(_dashboard(0, end)))
        # the tails' covering scans: one view per series, to the end
        assert sum(hi == end for _, hi in seen) == SERIES
        kept = Counter(view for view in seen if view[1] != end)
        want: Counter = Counter()
        for q in _dashboard(0, end):
            was, now = cut(q, last - MINUTE), cut(q, last)
            assert (was != now) == crossed  # 21 600 s: both grids at once
            if was != now:
                want[was, now - 1] += len(NODES)
        assert kept == want


def test_a_cache_only_panel_runs_nothing(stack, monkeypatch):
    inner, caching, end = stack
    raw = Query(METRICS[0], 0, end, tags=CITY)
    first = caching.run(raw)
    caching.cache.clear()  # the result cache forgot the answer; the panel not
    counts = _Counts(monkeypatch)
    again = caching.run(raw)
    assert counts.planned == [] and counts.cache_batches == []
    # a fresh run's count, read off the panel state (parent: 0, the
    # delta's)
    assert again.scanned_points == first.scanned_points
    assert caching.stats.cache_only_runs == 1
    assert caching.stats.batches == 2 and caching.stats.delta_queries == 0
    assert _reply([again]) == _reply([inner.run(raw)])


def test_a_cached_plain_request_reads_one_counter_per_metric(stack, monkeypatch):
    _, caching, end = stack
    queries = _dashboard(0, end)
    first = caching.run_many(queries)
    counts = _Counts(monkeypatch)
    again = caching.run_many(queries)
    assert all(a.series is b.series for a, b in zip(first, again))
    assert counts.planned == [] and counts.inserts == 0
    # nothing written since: no series resolved, no generation read
    # (per-series validation alone: 100 resolutions, 300 reads)
    assert counts.resolved == {} and counts.generations == {}
    # one write counter read per metric, for the request's one view
    assert counts.counters == Counter({("write", m): 1 for m in METRICS})
    assert caching.cache.stats.hits == 12


def test_an_exact_repeat_reads_each_metric_counter_from_one_cell(
        stack, monkeypatch):
    """The store keeps one catalog, so a metric's write counter is one
    cell shared by every series of the metric: an exact repeat of the
    wall is answered from the result cache with one read of it per
    metric."""
    inner, caching, end = stack
    assert isinstance(inner.catalog, SeriesCatalog)
    for metric in METRICS:
        keys = inner.series_for_metric(metric)
        assert len(keys) > 1
        cell = inner.catalog.metric_counters(metric)
        assert all(inner._series(key)._metric is cell for key in keys)
    first = caching.run_many(_dashboard(0, end))
    counts = _Counts(monkeypatch)
    again = caching.run_many(_dashboard(0, end))
    assert all(a.series is b.series for a, b in zip(first, again))
    assert caching.cache.stats.hits == 12 and counts.planned == []
    assert counts.counters == Counter({("write", m): 1 for m in METRICS})
    assert counts.resolved == {} and counts.matched == {}


def test_a_write_sends_only_its_metrics_panels_to_the_series(stack, monkeypatch):
    inner, caching, end = stack
    queries = _dashboard(0, end)
    first = caching.run_many(queries)
    written = METRICS[0]
    caching.put_batch(_minute(end + MINUTE, (written,), NODES[3:4]))
    counts = _Counts(monkeypatch)
    again = caching.run_many(queries)
    # the three panels over the written metric fall back to the
    # per-series check, and each matched the written node: re-run
    stats = caching.cache.stats
    assert stats.hits == 9 and stats.invalidated == 3
    assert counts.planned == [3] and counts.inserts == 3
    for q, a, b in zip(queries, first, again):
        assert (a.series is b.series) == (q.metric != written)
    # every other panel hit on its metric's counter: nothing of theirs
    # resolved (per-series validation alone: all 75 of their series)
    a_series = set(inner.series_for_metric(written))
    assert set(counts.resolved) <= a_series
    assert set(counts.generations) <= a_series
    assert _reply(again) == _reply(inner.run_many(queries))


def test_another_citys_write_still_hits_through_the_fallback(stack, monkeypatch):
    inner, caching, end = stack
    written = METRICS[0]
    vejle = {"city": "vejle", "node": "v-01"}
    caching.put(written, 0, 1.0, vejle)
    queries = _dashboard(0, end)
    first = caching.run_many(queries)
    caching.put(written, MINUTE, 2.0, vejle)
    counts = _Counts(monkeypatch)
    again = caching.run_many(queries)
    # the city=trondheim entries are not recomputed: all twelve hit
    assert all(a.series is b.series for a, b in zip(first, again))
    assert caching.cache.stats.hits == 12
    assert caching.cache.stats.invalidated == 0 and counts.planned == []
    # only the written metric's panels read their series, each once per
    # panel through one resolution (per-series validation alone: all 100)
    trondheim = inner._match(written, CITY)
    assert counts.resolved == Counter({key: 1 for key in trondheim})
    assert counts.generations == Counter({key: 3 for key in trondheim})


def test_an_append_only_refresh_reads_no_series_reshape_counter(stack, monkeypatch):
    inner, caching, end = stack
    caching.run_many(_dashboard(0, end))
    counts = _Counts(monkeypatch)
    for i in range(1, 4):
        end += MINUTE
        caching.put_batch(_minute(end, METRICS, NODES))
        counts.reset()
        got = caching.run_many(_dashboard(0, end))
        assert caching.stats.incremental_runs == 12 * i
        # both brackets hold on the metric's reshape counter: one read
        # per metric before the deltas, one after (per-series validation: 600
        # reshape reads, 300 of them to build a tuple nobody kept); the
        # write counter is read once per metric on each side too: the
        # result-cache look-up and the quiet check before, the inserts
        # after
        assert counts.reshapes == {}
        assert counts.counters == Counter(
            {**{("reshape", m): 2 for m in METRICS},
             **{("write", m): 2 for m in METRICS}})
        assert _reply(got) == _reply(inner.run_many(_dashboard(0, end)))


def test_a_live_refresh_caches_its_answers_and_no_edge(stack, monkeypatch):
    """Every answer enters the result cache under its own window, so a
    second client asking the same live wall is served by look-ups; no
    edge does (an older parent inserted every delta under a ``(cut,
    end)`` key no request can equal)."""
    inner, caching, end = stack
    caching.run_many(_dashboard(0, end))
    counts = _Counts(monkeypatch)
    for i in range(1, 4):
        end += MINUTE
        caching.put_batch(_minute(end, METRICS, NODES))
        counts.reset()
        got = caching.run_many(_dashboard(0, end))
        assert counts.planned == [12] and counts.inserts == 12
        assert _spliced(caching) == 12 * i
        counts.reset()
        again = caching.run_many(_dashboard(0, end))  # a second client
        assert counts.planned == [] and counts.inserts == 0
        assert all(a.series is b.series for a, b in zip(got, again))
        assert caching.cache.stats.hits == 12 * i
    assert len(caching.cache) == 12 * 4
    assert caching.stats.incremental_runs == 12 * 3
    assert _reply(again) == _reply(inner.run_many(_dashboard(0, end)))


class _Aligned:
    """Counts the planner's alignments and the points they align."""

    def __init__(self, monkeypatch) -> None:
        self.calls = self.points = 0
        real = plan_module.align

        def align(timestamps, values):
            self.calls += 1
            self.points += len(timestamps)
            return real(timestamps, values)

        monkeypatch.setattr(plan_module, "align", align)


def _edge_points(inner, q) -> int:
    """The matched points in the window's first and last buckets."""
    width = q.downsample.width
    head_end = -(-q.start // width) * width - 1
    tail_start = (q.end + 1) // width * width
    points = inner.run(replace(q, end=head_end)).scanned_points
    if tail_start <= q.end:
        points += inner.run(replace(q, start=tail_start)).scanned_points
    return points


def test_a_moved_plain_wall_plans_its_edges_only(stack, monkeypatch):
    inner, caching, end = stack
    # a first plain request: one batch, one alignment per filter
    aligned = _Aligned(monkeypatch)
    counts = _Counts(monkeypatch)
    caching.run_many(_dashboard(0, end))
    assert counts.planned == [12] and counts.inserts == 12
    assert aligned.calls == len(METRICS)
    assert caching.cache.stats.misses == 12 and _spliced(caching) == 0

    # the start moved one minute, off every bucket grid: one planned
    # batch of edges, aligning at most what the window's first and last
    # buckets hold
    moved = _dashboard(MINUTE, end)
    aligned.calls = aligned.points = 0
    counts.reset()
    got = caching.run_many(moved)
    assert len(counts.planned) == 1 and counts.cache_batches == []
    assert 0 < aligned.points <= sum(_edge_points(inner, q) for q in moved)
    assert _spliced(caching) == 12 and counts.inserts == 12
    assert _reply(got) == _reply(inner.run_many(moved))
    assert caching.stats.batches == 2  # every request is one

    # the identical request: a result-cache hit, the same series objects,
    # one write counter read per metric and no series resolved
    counts.reset()
    again = caching.run_many(moved)
    assert counts.planned == [] and counts.inserts == 0
    assert counts.resolved == {} and counts.reshapes == {}
    assert counts.counters == Counter({("write", m): 1 for m in METRICS})
    assert all(a.series is b.series for a, b in zip(got, again))
    assert caching.cache.stats.hits == 12 and _spliced(caching) == 12


def test_a_quiet_moved_plain_wall_plans_its_heads_only(stack, monkeypatch):
    inner, caching, end = stack
    caching.run_many(_dashboard(0, end))
    counts = _Counts(monkeypatch)
    edges: list[list[Query]] = []
    real = caching.wrapped._run_unique_batch

    def uncached(queries):
        edges.append(list(queries))
        return real(queries)

    monkeypatch.setattr(caching.wrapped, "_run_unique_batch", uncached)
    for j in range(1, 4):
        # the start moved a minute, the end stayed, nothing was written
        moved = _dashboard(j * MINUTE, end)
        counts.reset()
        edges.clear()
        got = caching.run_many(moved)
        # one planned batch of twelve heads and no tail (parent: 24
        # edges, a head and a tail per panel)
        assert counts.planned == [12]
        assert edges == [_heads(moved)]
        # no boundary read (parent: 300 series_latest reads, 25 per panel)
        assert counts.latest == {}
        assert _spliced(caching) == 12 * j and counts.inserts == 12
        assert _reply(got) == _reply(inner.run_many(moved))


def test_a_plain_wall_moved_inside_its_buckets_counts_no_kept_points(
        stack, monkeypatch):
    inner, caching, end = stack
    caching.run_many(_dashboard(0, end))
    caching.run_many(_dashboard(MINUTE, end))  # scans the heads
    counts = _Counts(monkeypatch)
    for j in range(2, 5):
        moved = _dashboard(j * MINUTE, end)
        counts.reset()
        got = caching.run_many(moved)
        # one planned batch of twelve heads, and no scan view but their
        # covering scans: the kept buckets' points are the held answer's
        # less the last head's (before: 400 views, 300 of them to count
        # the kept buckets' points)
        assert counts.planned == [12] and counts.cache_batches == []
        assert counts.views == SERIES
        assert counts.latest == {} and counts.inserts == 12
        assert _reply(got) == _reply(inner.run_many(moved))


def test_a_quiet_refresh_of_an_unchanged_window_is_cache_only(stack, monkeypatch):
    inner, caching, end = stack
    queries = _dashboard(0, end)
    first = caching.run_many(queries)
    caching.cache.clear()  # the result cache forgot the wall; its panels not
    counts = _Counts(monkeypatch)
    again = caching.run_many(queries)
    # nothing written: every panel is answered from its held state, the
    # same series objects, so a holding client is answered *not
    # modified* (an older parent: 12 tail queries over the last buckets)
    assert counts.planned == [] and counts.cache_batches == []
    assert caching.stats.delta_queries == 0
    assert caching.stats.cache_only_runs == 12
    assert all(a.series is b.series for a, b in zip(first, again))
    assert counts.latest == {} and counts.resolved == {}
    # fresh runs' counts, read off the panel state (parent: 0, the deltas')
    assert [r.scanned_points for r in again] == [
        r.scanned_points for r in first]

    # a write under one metric: its three panels take the boundary path
    # (a tail each), the other nine hit what the cache-only runs inserted
    written = METRICS[0]
    caching.put_batch(_minute(end + MINUTE, (written,), NODES))
    counts.reset()
    third = caching.run_many(queries)
    assert counts.planned == [3] and caching.stats.delta_queries == 3
    assert caching.stats.cache_only_runs == 12
    assert caching.cache.stats.hits == 9
    for q, a, b in zip(queries, again, third):
        assert (a.series is b.series) == (q.metric != written)
    assert set(counts.latest) == set(inner._match(written, CITY))
    assert _reply(third) == _reply(inner.run_many(queries))
