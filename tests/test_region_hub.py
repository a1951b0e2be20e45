"""RegionalHub: multi-city fan-in equivalence, backpressure, lifecycle.

The acceptance gates of the fan-in layer:

- an N-city hub run is *byte-identical* (snapshot ``dumps``) to one
  merged dataport writing the same traffic into a store;
- a deliberately throttled regional store triggers backpressure
  (bounded queue depth, exact drop/stall accounting) instead of
  stalling ingestion;
- the ecosystem/CLI wiring routes hop-5 writes through the hub without
  changing what ends up queryable.

Per-city retention is gated with the rest of the retention policy, in
``tests/test_tsdb_tier.py``.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import (
    CttEcosystem,
    EcosystemConfig,
    trondheim_deployment,
    vejle_deployment,
)
from repro.dataport import BatchingTsdbWriter
from repro.region import AsyncBatchQueue, Backpressure, CityIngress, CityPolicy, RegionalHub
from repro.simclock import HOUR, Scheduler, SimClock
from repro.tsdb import PointBatch, Query, TSDB, dumps

CITIES = ("trondheim", "vejle", "bergen", "aarhus")
METRICS = ("air.co2.ppm", "air.no2.ugm3", "weather.temperature.c")


def city_traffic(city: str, seed: int, n_batches: int = 30, rows: int = 100):
    """Deterministic per-city batches (city tag included, like a dataport)."""
    rng = np.random.default_rng([seed, hash(city) % 2**31])
    batches = []
    ts0 = 0
    for _ in range(n_batches):
        ts = ts0 + np.sort(rng.integers(0, 300, size=rows)).astype(np.int64)
        metric = METRICS[int(rng.integers(len(METRICS)))]
        node = f"ctt-{int(rng.integers(5)):02d}"
        vals = rng.normal(400.0, 20.0, size=rows)
        batches.append(
            PointBatch.for_series(metric, ts, vals, {"node": node, "city": city})
        )
        ts0 += 300
    return batches


class TestCityIngress:
    def test_stamps_city_tag_only_when_missing(self):
        q = AsyncBatchQueue(1000)
        ingress = CityIngress("vejle", q)
        ingress.put_batch(
            PointBatch.for_series("air.co2.ppm", [1], [400.0], {"node": "a"})
        )
        ingress.put_batch(
            PointBatch.for_series(
                "air.co2.ppm", [2], [401.0], {"node": "a", "city": "trondheim"}
            )
        )
        out = q.drain()
        tags = sorted(key.tag("city") for key in out.keys)
        assert tags == ["trondheim", "vejle"]

    def test_batching_writer_is_the_enqueue_side(self):
        """The dataport's hop-5 writer plugs into a fan-in lane unchanged."""
        scheduler = Scheduler(SimClock(start=0))
        store = TSDB()
        hub = RegionalHub(store, scheduler, flush_interval_s=10)
        ingress = hub.register_city(CityPolicy("trondheim", queue_capacity=300))
        writer = BatchingTsdbWriter(ingress, max_pending=100)
        for i in range(250):
            writer.add("air.co2.ppm", i, 400.0 + i, {"node": "n1"})
        writer.flush()
        assert writer.written == 250
        assert writer.pending == 0
        hub.drain_all()
        assert store.exact_point_count() == 250
        (key,) = store.series_for_metric("air.co2.ppm")
        assert key.tag("city") == "trondheim"

    def test_oversized_put_under_drop_oldest_keeps_newest_capacity_rows(self):
        """The lossy policies take oversized batches whole: the queue's
        trim keeps the newest `capacity` rows, where slice-by-slice
        enqueueing would let each slice evict the previous one."""
        q = AsyncBatchQueue(50, Backpressure.DROP_OLDEST)
        ingress = CityIngress("vejle", q)
        assert ingress.put_batch(
            PointBatch.for_series("air.co2.ppm", np.arange(101), np.ones(101))
        ) == 101
        assert q.drain().timestamps.tolist() == list(range(51, 101))

    def test_oversized_put_splits_to_capacity_slices(self):
        q = AsyncBatchQueue(50, Backpressure.BLOCK)
        ingress = CityIngress("vejle", q)
        n = ingress.put_batch(
            PointBatch.for_series("air.co2.ppm", np.arange(175), np.ones(175))
        )
        assert n == 175
        assert q.depth_points <= 50
        # 50 queued, 125 stalled upstream — nothing lost, bound honoured.
        assert q.depth_points + ingress.stalled_points == 175
        drained = []
        while not q.is_empty() or ingress.backpressured:
            drained.extend(q.drain().timestamps.tolist())
            ingress.retry_stalled()
        assert drained == list(range(175))


class TestFanInEquivalence:
    @pytest.mark.parametrize("backpressure", ["block", "spill"])
    def test_four_city_hub_matches_single_merged_dataport(
        self, tmp_path, backpressure
    ):
        """4-city fan-in is byte-identical to one merged dataport over
        one store."""
        traffic = {city: city_traffic(city, seed=7) for city in CITIES}

        # Reference: one merged dataport writing straight into one store.
        reference = TSDB()
        for city in CITIES:
            for batch in traffic[city]:
                reference.put_batch(batch)

        # Fan-in: 4 lanes with tight queues (forcing stall/spill churn)
        # draining into the regional store on scheduler ticks.
        scheduler = Scheduler(SimClock(start=0))
        store = TSDB()
        hub = RegionalHub(
            store, scheduler, flush_interval_s=60, spill_dir=tmp_path / "spill"
        )
        lanes = {
            city: hub.register_city(
                CityPolicy(
                    city,
                    queue_capacity=250,
                    backpressure=backpressure,
                    max_flush_points=400,
                )
            )
            for city in CITIES
        }
        hub.start()
        # Interleave cities round-robin, pumping the clock as we go.
        for i in range(max(len(b) for b in traffic.values())):
            for city in CITIES:
                if i < len(traffic[city]):
                    lanes[city].put_batch(traffic[city][i])
            scheduler.run_for(60)
        hub.drain_all()

        # Byte-identical snapshots (store-agnostic canonical order).
        assert dumps(store) == dumps(reference)
        # And identical query/aggregate output through the shared plan.
        for metric in METRICS:
            q = Query(
                metric, 0, 10**7, aggregator="sum",
                downsample="10m-avg", group_by=("city",),
            )
            got, want = store.run(q), reference.run(q)
            assert len(got.series) == len(want.series)
            for g, w in zip(got.series, want.series):
                assert g.group_tags == w.group_tags
                np.testing.assert_array_equal(g.timestamps, w.timestamps)
                np.testing.assert_array_equal(g.values, w.values)
        # No data was dropped on the way through.
        for city in CITIES:
            assert hub.city_stats(city)["dropped_points"] == 0


class TestBackpressure:
    def _flood(self, policy: CityPolicy, tmp_path=None):
        """Feed 10k points at 2x the throttled store's drain bandwidth."""
        scheduler = Scheduler(SimClock(start=0))
        store = TSDB()
        hub = RegionalHub(store, scheduler, flush_interval_s=10,
                          spill_dir=tmp_path)
        ingress = hub.register_city(policy)
        hub.start()
        produced = 0
        for i in range(25):  # bursts of 2x200 vs one 200-batch flushed/tick
            for _ in range(2):
                batch = PointBatch.for_series(
                    "air.co2.ppm",
                    np.arange(produced, produced + 200, dtype=np.int64),
                    np.ones(200),
                    {"node": "n1", "city": policy.city},
                )
                assert ingress.put_batch(batch) == 200
                produced += 200
            scheduler.run_for(10)  # one hub tick → at most 200 flushed
            assert hub.queue(policy.city).depth_points <= policy.queue_capacity
        return scheduler, store, hub, ingress, produced

    def test_block_bounds_queue_and_loses_nothing(self):
        policy = CityPolicy(
            "trondheim", queue_capacity=1_000,
            backpressure=Backpressure.BLOCK, max_flush_points=200,
        )
        scheduler, store, hub, ingress, produced = self._flood(policy)
        # The slow store backpressured the lane instead of stalling hop 4.
        assert ingress.backpressured
        assert ingress.stalled_points > 0
        assert hub.queue("trondheim").stats.refused_offers > 0
        hub.drain_all()
        assert store.exact_point_count() == produced  # zero loss
        assert hub.queue("trondheim").stats.dropped_points == 0

    def test_drop_oldest_accounts_exactly_and_keeps_newest(self):
        policy = CityPolicy(
            "trondheim", queue_capacity=1_000,
            backpressure=Backpressure.DROP_OLDEST, max_flush_points=200,
        )
        scheduler, store, hub, ingress, produced = self._flood(policy)
        hub.drain_all()
        stats = hub.queue("trondheim").stats
        assert stats.dropped_points > 0
        assert store.exact_point_count() == produced - stats.dropped_points
        # The newest measurement always survives drop-oldest.
        sl = store.series_slice(store.series_for_metric("air.co2.ppm")[0])
        assert int(sl.timestamps[-1]) == produced - 1
        assert not ingress.backpressured

    def test_spill_absorbs_overflow_without_loss(self, tmp_path):
        policy = CityPolicy(
            "trondheim", queue_capacity=1_000,
            backpressure=Backpressure.SPILL, max_flush_points=200,
        )
        scheduler, store, hub, ingress, produced = self._flood(
            policy, tmp_path=tmp_path
        )
        assert hub.queue("trondheim").stats.spilled_points > 0
        hub.drain_all()
        assert store.exact_point_count() == produced  # zero loss
        assert hub.queue("trondheim").spill_pending_points == 0


class TestEcosystemWiring:
    def test_regional_run_matches_direct_run_byte_for_byte(self):
        """Same seed, same traffic: hub fan-in vs direct hop-5 writes."""
        deployments = [trondheim_deployment(), vejle_deployment()]

        direct = CttEcosystem(
            deployments, config=EcosystemConfig(seed=11)
        )
        direct.start()
        direct.run(2 * HOUR)

        regional = CttEcosystem(
            [trondheim_deployment(), vejle_deployment()],
            config=EcosystemConfig(
                seed=11,
                cities=(
                    CityPolicy("trondheim", queue_capacity=2_000),
                    CityPolicy("vejle", queue_capacity=500),
                ),
                region_flush_interval_s=120,
            ),
        )
        assert regional.hub is not None
        assert regional.hub.cities == ["trondheim", "vejle"]
        regional.start()
        regional.run(2 * HOUR)
        regional.flush_region()

        assert regional.db.exact_point_count() > 0
        assert dumps(regional.db) == dumps(direct.db)
        for city in ("trondheim", "vejle"):
            assert regional.hub.city_stats(city)["flushed_points"] > 0

    def test_cli_region_run(self, capsys):
        rc = cli_main([
            "run", "--cities", "trondheim,vejle", "--hours", "1",
            "--queue-depth", "500", "--backpressure", "drop-oldest",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regional fan-in: 2 cities" in out
        assert "[trondheim]" in out and "[vejle]" in out
        assert "accepted_points" in out

    def test_policy_for_undeployed_city_rejected(self):
        with pytest.raises(ValueError, match="undeployed"):
            CttEcosystem(
                [vejle_deployment()],
                config=EcosystemConfig(cities=(CityPolicy("trondheim"),)),
            )

    def test_cli_rejects_duplicate_cities(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--cities", "vejle,vejle", "--hours", "1"])
