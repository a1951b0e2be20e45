PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-cold test-store test-region test-persist test-query test-catalog test-replication test-tier test-uplink test-imports serve-test bench bench-region bench-query bench-serve bench-catalog bench-replication bench-tier bench-e2e bench-pairs lint loc

test:
	$(PYTHON) -m pytest -x -q

# The store-surface gate: every write and read the protocol names, on
# every engine and through the wrapper stack, plus the suites
# of everything derived from the primitives (catalog, tier, serving),
# the series store itself and a read or a put at every line of the
# other's path on one series (one published state: nothing torn, lost
# or raised).
test-store:
	$(PYTHON) -m pytest -q tests/test_store_stack.py tests/test_store_reads.py tests/test_metric_counters.py tests/test_tsdb_catalog.py tests/test_tsdb_tier.py tests/test_serve.py tests/test_tsdb_model_series.py tests/test_series_interleavings.py

# The fan-in gate: queue invariants + N-city/merged-dataport equivalence.
test-region:
	$(PYTHON) -m pytest -q tests/test_region_queue.py tests/test_region_hub.py

# The persistence-format gate: segment round-trip equivalence to the
# live store (the one durable format), codec properties, corruption
# recovery, a wrong magic refused and never rewritten, a snapshot that
# fails part-way leaving the previous one as it was, and the
# dataport writer's write-ahead flush through DurableStore.
test-persist:
	$(PYTHON) -m pytest -q tests/test_tsdb_segments.py tests/test_tsdb_persistence.py

# The query-engine gate: run/run_many results byte-identical to the
# seed run() path, the block executor byte-identical to the frozen seed
# executor under hypothesis (0-30 series, empty or lagging ones, every
# aggregator x downsample x fill, rate, NaN / +-inf / -0.0, several
# windows of one filter in one batch), wire codec round-trips, and the one normalized query
# identity (any spelling of a query is that query, exact-integer
# windows, mistyped wire fields refused in band), and strict decoding
# through a warm intern (a dict decodes as it would cold, whatever
# twin of it was decoded first).
test-query:
	$(PYTHON) -m pytest -q tests/test_tsdb_plan.py tests/test_tsdb_wire.py tests/test_tsdb_query.py

# The serving-layer gate: cache/refresh results byte-identical to
# uncached run_many, live asyncio server survives malformed requests,
# per-tenant admission control, wire error paths, and conditional
# replies (a holding client ≡ encode_response, the columnar dict form,
# with tails spliced as base64 text; an unchanged dashboard costs
# look-ups — no query built on the server, none encoded by the client,
# nothing digested — and a cold reply no call per point, as counts; a
# slid wall costs its head — one small column encode per series, no
# base64 decoded by the client, the same bytes digested over 6 h as over
# 24 h — and a move onto the bucket grid answers its off-grid cuts in
# full; a lying splice is refused; no validator a client holds ever
# names two texts under the property, a sliding wall included); the one
# request path,
# tests/test_serve_splice.py (a reply built from held buckets plus head
# and tail edges ≡ inner.run_many, scannedPoints included, under
# hypothesis on the store stack with quiet rounds drawn — nothing
# written, heads only — and live rounds — start fixed, a write, the end
# moved — a start sliding a minute at a time across the bucket grid
# with writes between the moves, a write racing a quiet splice, and two
# clients sliding one wall at once); what one live or moved-window
# request costs as counts (validators read once, one planned batch of
# edges — heads alone when nothing was written, and then no scan view beyond theirs while the start stays in
# the last head's bucket — no delta inserted into the result cache, one
# counter per metric on a hit; a live refresh of an unchanged series set
# matches no filter, walks no postings, looks no series up and reads
# each series' last point once per filter, one new series re-resolves
# its own filter alone, once, and a live wall opens no scan view for
# its kept buckets until its cut crosses one); the split at the result
# cache (an all-hit request answered on the loop thread with no worker
# job, in a worker's bytes; eleven hits and a miss make one worker job,
# every count once; a write between the look-up and run phases caches
# nothing stale); the house property driven through the look-up phase and, only when a miss
# is left, the run phase, exact repeats drawn; and the per-metric
# short-cut ≡ the per-series check under interleaved writes through
# the store stack; and one request in flight per connection (every
# pipelined line answered once and in order, under hypothesis over
# several connections): a client that reads none of its replies holds
# one reply and stalls no other client of its tenant (block and
# drop-oldest), and a client that half-closes after its last line is
# still answered; a tenant name leaves no task behind, a hard stop ends
# every handler, running or waiting, and a pipelining client starves no
# other tenant.  Its socket
# timeouts bound it; in CI the test job's timeout-minutes (45) bounds
# the whole run, so a wedged serving test fails instead of hanging.
serve-test:
	$(PYTHON) -m pytest -q tests/test_serve.py tests/test_serve_conditional.py tests/test_serve_splice.py tests/test_refresh_costs.py tests/test_metric_counters.py tests/test_tsdb_wire.py

# The catalog gate: postings-index matching byte-identical to the
# brute-force scan under random ingest/retention/restore interleavings
# (hypothesis), each filter asked twice so the second answer is its kept
# resolution (keys, group partitions ≡ a brute-force partition, column
# stores ≡ the store's own look-ups), no absent store kept when a match
# lands between a series' indexing and its storing, cardinality
# guard-rails, catalog rebuild on every restore path, catalog wire/CLI
# surface (a non-string tag filter refused in band, as a query's is).
test-catalog:
	$(PYTHON) -m pytest -q tests/test_tsdb_catalog.py tests/test_tsdb_wire.py tests/test_serve.py

# The replication gate: a promoted follower byte-identical to a
# from-scratch build of the acknowledged input under seeded fault
# injection (disconnects, dup/reorder, torn tails, bit flips), plus the
# live two-process SIGUSR1 failover drill.
test-replication:
	$(PYTHON) -m pytest -q tests/test_replication.py

# The tiered-storage gate: compact(log) restores byte-identical to
# replay(log) under random op interleavings (hypothesis), crash-safe
# swap-in, a non-segment refused and left as it is,
# and the retention policy: tiers and drop, bucket-aligned, one batch
# per stage (journaled through DurableStore, the one journal).
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
# (bytes copied by scans 0, one filter's block and alignment alive at a time,
# traced peak below the bytes scanned, no NaN mask and no per-value
# encode without a NaN, results that own their columns), a scan ≡ the
# eager copy under any later write (hypothesis), and every aggregator on
# cells and on segments ≡ the frozen numpy oracle (quantiles: the stated
# rule) through both mask branches, with no series × instant matrix and
# no per-bucket call; and the block executor ≡ the frozen seed executor
# under hypothesis (test_tsdb_plan.py).
test-cold:
	$(PYTHON) -m pytest -q tests/test_cold_costs.py tests/test_property_tsdb.py tests/test_tsdb_plan.py tests/test_tsdb_batch.py tests/test_aggregators.py

# The import-graph gate: fresh-interpreter checks that a store process
# (tsdb / serve / replication, the e2e fixture, the CLI parser) loads no
# domain model, that nothing loads scipy or networkx, and that the root
# name table resolves.
test-imports:
	$(PYTHON) -m pytest -q tests/test_import_graph.py

# Every bench* target passes --bench-record: only then do the benchmarks
# rewrite BENCH_ingest.json (`make test` leaves the tree clean).  `bench`
# runs every leg, as CI's bench job does.
bench: bench-region bench-query bench-serve bench-catalog bench-replication bench-tier

# 1/2/4-city fan-in throughput, recorded into BENCH_ingest.json.
bench-region:
	$(PYTHON) -m pytest -q benchmarks/test_region_fanin.py -s --bench-record

# 12-panel dashboard workload, seed vs batched planner;
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

# src/ and the replication fault harness that moved out of it.
lint:
	$(PYTHON) -m ruff check src/ tests/replication_faults.py

# The src/ line count ROADMAP's standing item tracks (it should go down).
loc:
	@find src -name '*.py' | xargs cat | wc -l
