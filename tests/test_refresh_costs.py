"""What one dashboard refresh costs, as counts — not clocks.

The serving stack from public constructors::

    IncrementalRefresher(
        CachingStore(DurableStore(ReplicatedStore(ShardedTSDB(4)))))

with the e2e wall (12 panels over 4 metrics x 25 nodes) and one minute
appended before each refresh, and counting wrappers around what a
refresh request should do *once*: resolve a series (before the scans,
for the scan, after them), match a filter, plan the deltas, parse a
downsample spec — and what it should not do at all: insert a delta into
the result cache, whose entries no later request can ask for.
Every count is deterministic; the replies are checked against the
innermost store.
"""

from collections import Counter

import numpy as np
import pytest

import repro.tsdb.interface as interface_module
from repro.replication import ReplicatedStore
from repro.serve import CachingStore, IncrementalRefresher
from repro.serve.cache import ResultCache
from repro.tsdb import BatchBuilder, DurableStore, Query, ShardedTSDB, wire
from repro.tsdb.catalog import MergedCatalog
from repro.tsdb.downsample import Downsample
from test_serve_conditional import METRICS, MINUTE, _minute

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


def _series_of(results) -> list:
    return [r["series"] for r in wire.encode_response(results)["results"]]


class _Counts:
    """Counting wrappers under the whole stack (the innermost store's
    ``_series`` and catalog) and at the seams a refresh crosses."""

    def __init__(self, monkeypatch) -> None:
        self.resolved: Counter = Counter()  # series key -> _series calls
        self.matched: Counter = Counter()  # filter -> catalog matches
        self.planned: list[int] = []  # planner batches, by size
        self.cache_batches: list[int] = []  # batches through the cache
        self.inserts = 0
        real_series = ShardedTSDB._series
        real_match = MergedCatalog.match
        real_plan = interface_module.run_unique_batch
        real_cached = CachingStore._run_unique_batch
        real_insert = ResultCache.insert

        def _series(store, key):
            self.resolved[key] += 1
            return real_series(store, key)

        def match(catalog, metric, tags):
            self.matched[metric, tuple(sorted(tags.items()))] += 1
            return real_match(catalog, metric, tags)

        def run_unique_batch(queries, match, scan):
            self.planned.append(len(queries))
            return real_plan(queries, match, scan)

        def cached(store, queries):
            self.cache_batches.append(len(queries))
            return real_cached(store, queries)

        def insert(cache, *args):
            self.inserts += 1
            return real_insert(cache, *args)

        monkeypatch.setattr(ShardedTSDB, "_series", _series)
        monkeypatch.setattr(MergedCatalog, "match", match)
        monkeypatch.setattr(interface_module, "run_unique_batch", run_unique_batch)
        monkeypatch.setattr(CachingStore, "_run_unique_batch", cached)
        monkeypatch.setattr(ResultCache, "insert", insert)

    def reset(self) -> None:
        self.resolved.clear()
        self.matched.clear()
        self.planned.clear()
        self.cache_batches.clear()
        self.inserts = 0


@pytest.fixture
def stack(tmp_path):
    inner = ShardedTSDB(4)
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
    return inner, caching, (HISTORY_MINUTES - 1) * MINUTE


def test_a_refresh_reads_each_validator_once_and_plans_once(stack, monkeypatch):
    inner, caching, end = stack
    refresher = IncrementalRefresher(caching)
    counts = _Counts(monkeypatch)

    # the first refresh: every panel in full, through the result cache,
    # never more than one panel's scans held at a time
    refresher.run_many(_dashboard(0, end))
    assert counts.cache_batches == [1] * 12
    assert counts.planned == [1] * 12
    assert counts.inserts == 12
    assert refresher.stats.as_dict() == {
        "full_runs": 12, "incremental_runs": 0, "cache_only_runs": 0,
        "invalidated": 0, "evicted": 0, "batches": 1, "delta_queries": 0}

    parses = Downsample.parse.cache_info().misses
    for i in range(1, 4):
        end += MINUTE
        caching.put_batch(_minute(end, METRICS, NODES))
        counts.reset()
        got = refresher.run_many(_dashboard(0, end))
        # before the scans, for the scan, after them (parent: 21 each)
        assert len(counts.resolved) == SERIES
        assert max(counts.resolved.values()) <= 3
        # the before view and the planner (parent: 12 each)
        assert len(counts.matched) == len(METRICS)
        assert max(counts.matched.values()) <= 3
        # one planned batch of twelve deltas, under the result cache
        assert counts.planned == [12]
        assert counts.cache_batches == []
        assert counts.inserts == 0
        assert Downsample.parse.cache_info().misses == parses
        assert refresher.stats.batches == 1 + i
        assert refresher.stats.delta_queries == 12 * i
        assert refresher.stats.incremental_runs == 12 * i
        # the delta is the open bucket, not the six-hour window
        assert max(r.scanned_points for r in got) <= 61 * len(NODES)
        assert _series_of(got) == _series_of(inner.run_many(_dashboard(0, end)))
    assert len(caching.cache) == 12
    assert caching.cache.stats.misses == 12 and caching.cache.stats.evicted == 0


def test_a_cache_only_panel_runs_nothing(stack, monkeypatch):
    inner, caching, end = stack
    refresher = IncrementalRefresher(caching)
    raw = Query(METRICS[0], 0, end, tags=CITY)
    refresher.run(raw)
    counts = _Counts(monkeypatch)
    again = refresher.run(raw)
    assert counts.planned == [] and counts.cache_batches == []
    assert again.scanned_points == 0
    assert refresher.stats.cache_only_runs == 1
    assert refresher.stats.batches == 2 and refresher.stats.delta_queries == 0
    assert _series_of([again]) == _series_of([inner.run(raw)])


def test_a_cached_plain_request_resolves_each_series_once(stack, monkeypatch):
    _, caching, end = stack
    queries = _dashboard(0, end)
    first = caching.run_many(queries)
    counts = _Counts(monkeypatch)
    again = caching.run_many(queries)
    assert all(a.series is b.series for a, b in zip(first, again))
    assert counts.planned == [] and counts.inserts == 0
    # one look-up per distinct series, not one per panel (parent: 3 each)
    assert len(counts.resolved) == SERIES
    assert set(counts.resolved.values()) == {1}
    assert caching.cache.stats.hits == 12


def test_refreshes_leave_the_result_cache_to_plain_requests(stack):
    """At the parent every delta was inserted under a ``(cut, end)`` key
    no later request can equal: eleven refreshes evicted every entry the
    plain dashboards were being served from."""
    _, caching, end = stack
    refresher = IncrementalRefresher(caching)
    plain = _dashboard(0, end, METRICS[:2])  # six panels, cached
    live = METRICS[2:]  # the refreshed panels' metrics: what gets written
    first = caching.run_many(plain)
    refresher.run_many(_dashboard(0, end, live))
    assert len(caching.cache) == 12
    misses = caching.cache.stats.misses
    for _ in range(20):
        end += MINUTE
        caching.put_batch(_minute(end, live, NODES))
        refresher.run_many(_dashboard(0, end, live))
    assert refresher.stats.incremental_runs == 20 * 6
    assert len(caching.cache) == 12
    assert caching.cache.stats.misses == misses
    assert caching.cache.stats.evicted == 0
    hits = caching.cache.stats.hits
    again = caching.run_many(plain)
    assert caching.cache.stats.hits == hits + 6
    assert all(a.series is b.series for a, b in zip(first, again))
