PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-cold test-store test-sharded test-region test-persist test-query test-catalog test-replication test-tier test-uplink test-imports serve-test bench bench-sharded bench-region bench-persist bench-query bench-serve bench-catalog bench-replication bench-tier bench-e2e bench-pairs lint loc

test:
	$(PYTHON) -m pytest -x -q

# The store-surface gate: every write and read the protocol names, on
# every engine, through the wrapper stack and the pager, plus the suites
# of everything derived from the primitives (catalog, tier, serving).
test-store:
	$(PYTHON) -m pytest -q tests/test_store_stack.py tests/test_store_reads.py tests/test_tsdb_sharded.py tests/test_tsdb_catalog.py tests/test_tsdb_tier.py tests/test_serve.py

# The sharded-equivalence gate: fixed-seed, fully deterministic.
test-sharded:
	$(PYTHON) -m pytest -q tests/test_tsdb_sharded.py

# The fan-in gate: queue invariants + N-city/merged-dataport equivalence.
test-region:
	$(PYTHON) -m pytest -q tests/test_region_queue.py tests/test_region_hub.py

# The persistence-format gate: binary/text round-trip equivalence
# (text is the import / export codec; the live journal is binary),
# codec properties, corruption recovery, spill adoption, and the
# dataport writer's write-ahead flush through DurableStore.
test-persist:
	$(PYTHON) -m pytest -q tests/test_tsdb_segments.py tests/test_tsdb_persistence.py

# The query-engine gate: builder/run_many/expression results on single
# and sharded stores byte-identical to the seed run() path, plus wire
# codec round-trips.
test-query:
	$(PYTHON) -m pytest -q tests/test_tsdb_plan.py tests/test_tsdb_wire.py

# The serving-layer gate: cache/refresh results byte-identical to
# uncached run_many, live asyncio server survives malformed requests,
# per-tenant admission control, wire error paths, and conditional
# replies (a holding client ≡ the dict codec; an unchanged dashboard
# costs look-ups, as counts), and what one refresh request costs as
# counts (validators read once, one planned batch of deltas, nothing
# inserted into the result cache).
serve-test:
	$(PYTHON) -m pytest -q tests/test_serve.py tests/test_serve_conditional.py tests/test_refresh_costs.py tests/test_tsdb_wire.py

# The catalog gate: postings-index matching byte-identical to the
# brute-force scan under random ingest/retention/restore interleavings
# (hypothesis), cardinality guard-rails, catalog rebuild on every
# restore path, catalog wire/CLI surface.
test-catalog:
	$(PYTHON) -m pytest -q tests/test_tsdb_catalog.py tests/test_tsdb_wire.py tests/test_serve.py

# The replication gate: a promoted follower byte-identical to a
# from-scratch build of the acknowledged input under seeded fault
# injection (disconnects, dup/reorder, torn tails, bit flips), plus the
# live two-process SIGUSR1 failover drill.
test-replication:
	$(PYTHON) -m pytest -q tests/test_replication.py

# The tiered-storage gate: compact(log) restores byte-identical to
# replay(log) under random op interleavings (hypothesis, binary journals
# and legacy text logs, single + sharded), crash-safe swap-in, cold-shard paging equivalence,
# rollup-tier cascade journaled through DurableStore (the one journal).
test-tier:
	$(PYTHON) -m pytest -q tests/test_tsdb_tier.py

# The uplink-journey gate: what one uplink costs as counts (a series
# named once, a flush framed once, cumulative acks, no polling), the
# follower's buffer walk ≡ the record-at-a-time loop under any
# segmentation, plus the replication, store-stack and dataport suites
# that pin the bytes and orderings of the same path.
test-uplink:
	$(PYTHON) -m pytest -q tests/test_uplink_costs.py tests/test_replication_walk.py tests/test_replication.py tests/test_store_stack.py tests/test_dataport_app.py

# The cold-path gate: what one cold dashboard batch costs as counts
# (bytes copied by scans 0, one filter's alignment alive at a time,
# traced peak below the bytes scanned, no NaN mask and no per-value
# encode without a NaN, results that own their columns), a scan ≡ the
# eager copy under any later write (hypothesis), and every aggregator
# ≡ the dense columnar definition through both mask branches.
test-cold:
	$(PYTHON) -m pytest -q tests/test_cold_costs.py tests/test_property_tsdb.py tests/test_tsdb_plan.py

# The import-graph gate: fresh-interpreter checks that a store process
# (tsdb / serve / replication, the e2e fixture, the CLI parser) loads no
# domain model and no scipy, and that the root name table resolves.
test-imports:
	$(PYTHON) -m pytest -q tests/test_import_graph.py

# Every bench* target passes --bench-record: only then do the benchmarks
# rewrite BENCH_ingest.json (`make test` leaves the tree clean).
bench:
	$(PYTHON) -m pytest -q benchmarks/test_ingest_throughput.py -s --bench-record

bench-sharded:
	$(PYTHON) -m pytest -q benchmarks/test_ingest_throughput.py -k sharded -s --bench-record

# 1/2/4-city fan-in throughput, recorded into BENCH_ingest.json.
bench-region:
	$(PYTHON) -m pytest -q benchmarks/test_region_fanin.py -s --bench-record

# WAL append / replay / snapshot-restore, the text import / export
# codec vs the binary journal;
# gates the >=10x binary speedup and records the persistence section.
bench-persist:
	$(PYTHON) -m pytest -q benchmarks/test_persistence.py -s --bench-record

# 12-panel dashboard workload, seed vs batched planner, 1/4/8 shards;
# gates the >=2x batched speedup and records the query section.
bench-query:
	$(PYTHON) -m pytest -q benchmarks/test_query_throughput.py -s --bench-record

# TCP end-to-end serving: cold vs cached vs incremental dashboard
# refresh + sustained queries/sec at N concurrent clients; gates the
# >=5x cached speedup and records the serve section.
bench-serve:
	$(PYTHON) -m pytest -q benchmarks/test_serve_throughput.py -s --bench-record

# Inverted-index matching vs pre-catalog scan at 120k series; gates
# the >=5x indexed speedup and records the catalog section.
bench-catalog:
	$(PYTHON) -m pytest -q benchmarks/test_catalog.py -s --bench-record

# Steady-state replication lag, catch-up replay throughput, and
# promote-to-first-query failover time; gates catch-up >= 5x live
# ingest and records the replication section.
bench-replication:
	$(PYTHON) -m pytest -q benchmarks/test_replication_throughput.py -s --bench-record

# Marker-heavy aged-WAL compaction and cold-start paging; gates the
# >=5x compacted-replay speedup and records the tier section.
bench-tier:
	$(PYTHON) -m pytest -q benchmarks/test_tier.py -s --bench-record

# The end-to-end benchmark (BENCHMARK.json's command): one workload of
# uplink_stream / dashboard_cold / dashboard_cached / dashboard_live,
# five fresh-process trials, ~25 s.  `make bench-e2e W=dashboard_live SEED=3`;
# see benchmarks/e2e/README.md for --trace and the A/A harness.
W ?= dashboard_cached
SEED ?= 7
bench-e2e:
	python3 -m benchmarks.e2e --workload $(W) --seed $(SEED)

# Parent / change pair runs of one workload, alternating which side
# goes first, same seed on both sides; per metric medians, quartiles,
# wins and a verdict against BENCHMARK.json's bound.
# `make bench-pairs PARENT=HEAD~1 W=dashboard_cold PAIRS=10`.
PARENT ?= HEAD
PAIRS ?= 10
bench-pairs:
	python3 -m benchmarks.pairs --parent $(PARENT) --workload $(W) --pairs $(PAIRS)

lint:
	$(PYTHON) -m ruff check src/

# The src/ line count ROADMAP's standing item tracks (it should go down).
loc:
	@find src -name '*.py' | xargs cat | wc -l
