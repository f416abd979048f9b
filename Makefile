GO ?= go

.PHONY: build examples test race vet lint cover loc bench-smoke benchmark-smoke benchmark-ab exact-diff fuzz-smoke stress replica-smoke seal-sweep failover-sweep restart-sweep heap-budget disk-budget expand-budget

build:
	$(GO) build ./...

# Runs every program under examples/ end to end; fails on the first non-zero
# exit. (The aviation and window examples' output is also pinned byte for byte
# by golden tests under go test.)
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

test:
	$(GO) test ./...

# Race-checks the packages touched by the parallel snapshot pipeline plus
# everything else under internal/ (all are expected to be race-clean).
race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (cmd/aionlint): vfs-seam, dropped
# durability errors, cancellation-blind loops, fsync-under-lock, plus the
# flow-aware layer — mixed atomics, lock-order cycles, string-flush
# ordering before WAL appends, leak-shaped goroutines. Fails on any
# unsuppressed finding; see README for the suppression syntax. The full
# -v report (findings, suppressions with reasons, per-analyzer timings)
# lands in aionlint.txt, the CI-visible artifact.
lint:
	$(GO) run ./cmd/aionlint -v > aionlint.txt 2>&1; s=$$?; cat aionlint.txt; exit $$s

# Atomic-mode coverage over internal/; the per-package breakdown is the
# CI-visible artifact.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -func=coverage.out | tail -1

# Non-test Go lines under internal/ and cmd/: the total, then the total
# without internal/refmodel — the test oracle, which may grow — so the second
# line is the production code's size.
LOC_FILES = find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'
loc:
	@echo "total $$($(LOC_FILES) | xargs cat | wc -l)"
	@echo "without internal/refmodel $$($(LOC_FILES) ! -path 'internal/refmodel/*' | xargs cat | wc -l)"

# One iteration of the read-path micro-benchmarks (enough to catch
# regressions in the pipeline wiring without a full benchmark run), the
# commit-throughput suite (group-commit pipeline vs serialised committers),
# and a machine-readable BENCH_smoke.json snapshot at the repo root.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SnapshotLoad|GetGraph$$' -benchtime 1x ./internal/timestore/
	$(GO) test -run '^$$' -bench 'CommitThroughput' -benchtime 100x ./internal/hostdb/
	$(GO) run ./cmd/aion-bench -exp write -writeops 50 -committers 1,16 -json BENCH_smoke.json

# A one-second pass of the frozen end-to-end benchmark (benchmark/, the
# command BENCHMARK.json names): ~50 s including its build; exits non-zero
# on any oracle mismatch, lost durable write or broken layer isolation.
benchmark-smoke:
	bash benchmark/run.sh -seconds 1 -seed 1

# The behaviour criterion of a refactor, mechanically: benchmark-smoke on
# PARENT (a git ref) and on this tree, then a field-by-field diff of the
# `# exact:` counters; fails when a field not listed in ALLOW differs.
#   make exact-diff PARENT=HEAD~1 ALLOW=disk_bytes
ALLOW ?=
exact-diff:
	bash scripts/exact-diff.sh $(PARENT) $(ALLOW)

# What a claim on a gated metric rests on: PAIRS alternating untraced runs of
# the frozen benchmark, PARENT (a git ref, copied out with git archive) against
# this tree, on one seed (SEED=1, RUN_SECONDS=20 from the environment); the
# exact counters must match on every pair (except ALLOW), then per workload and
# gated metric the medians, quartiles, wins/pairs and a verdict against
# BENCHMARK.json's bound. One workload is ~1 min a pair, all four ~12 min.
#   make benchmark-ab PARENT=HEAD~1 WORKLOAD=point-history PAIRS=10
WORKLOAD ?= all
PAIRS ?= 10
benchmark-ab:
	bash scripts/benchmark-ab.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(ALLOW)

# Concurrent serving-path stress under the race detector: mixed
# reader/writer bolt clients against an undersized admission limit, plus the
# engine-level writer/reader mix, the cancellation suite and entity reads
# waiting for the cascade while the store closes.
stress:
	$(GO) test -race -count=2 -run 'Stress|Concurrent|Cancel|Deadline|Overload|Drain|Panic|Replica' ./internal/aion/ ./internal/bolt/ ./internal/cypher/ ./internal/hostdb/ ./internal/system/
	$(GO) test -race -count=1 ./internal/replica/

# Replication smoke over real TCP: a primary and two follower servers, one
# follower's stream killed mid-flight (it must reconnect and re-converge),
# plus router fallback and dial-failure backoff.
replica-smoke:
	$(GO) test -race -count=1 -run 'TestReplicationOverTCP|TestRouterFallback|TestFollowerReconnectBackoff' -v ./internal/replica/

# A short run of the decoders' fuzzers (recovery feeds the update and block
# decoders torn log tails; chain recovery feeds the delta-header decoder and
# the element reader arbitrary .dsnap bytes; LineageStore reads feed the key
# parsers B+Tree pages that carry no checksum; a follower decodes the host's
# commit records off the network): long enough to exercise the mutators,
# short enough for CI — the whole target stays under a minute.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeUpdates -fuzztime 10s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBlock -fuzztime 10s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeDelta -fuzztime 6s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzParseKeys -fuzztime 5s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzReadElement -fuzztime 8s ./internal/timestore/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCommit -fuzztime 4s ./internal/hostdb/

# The failover gate: the kill/partition × protocol-point promotion sweep
# plus the seeded replication chaos soak, across a bounded seed set under
# the race detector. Per-seed verbose results accumulate in
# FAILOVER_sweep.txt (the CI-visible artifact); any failing seed fails
# the target with the transcript printed.
FAILOVER_SEEDS ?= 1 7 13
failover-sweep:
	@: > FAILOVER_sweep.txt
	@set -e; for s in $(FAILOVER_SEEDS); do \
		echo "== failover sweep, seed $$s =="; \
		echo "== seed $$s ==" >> FAILOVER_sweep.txt; \
		$(GO) test -race -count=1 -v -run 'TestFailoverSweep|TestReplicationChaosSeeded' \
			./internal/replica/ -failover.seed=$$s >> FAILOVER_sweep.txt 2>&1 \
			|| { tail -40 FAILOVER_sweep.txt; exit 1; }; \
	done
	@grep -c '^=== RUN' FAILOVER_sweep.txt | xargs -I{} echo "failover sweep: {} scenario runs, all passed (see FAILOVER_sweep.txt)"

# The partitioned-history gate: the seal crash sweeps and the cross-store
# equivalence harness (partitioned vs monolithic, byte-identical results)
# under the race detector, then the history-depth benchmark with its
# machine-readable artifact, compared (informationally) against the
# checked-in baseline.
seal-sweep:
	$(GO) test -race -count=1 -run 'TestCrashSweepSeal|TestRecoveryDropsOrphanDeltas' ./internal/timestore/
	$(GO) test -race -count=1 ./internal/tstest/
	$(GO) run ./cmd/aion-bench -exp history -scale 500 -globalops 12 -json BENCH_seal.json -baseline BENCH_baseline.json

# The restart gate: the two-generation checkpoint crash sweep, the tests that
# the disk alone selects the catch-up path, the lineage-only watermark and
# failed-Open leak tests and the tail-only TimeStore recovery property, all
# under the race detector, then one timed reopen of the benchmark's dataset
# shape.
restart-sweep:
	$(GO) test -race -count=1 -run 'TestCrashSweepRestart' ./internal/system/
	$(GO) test -race -count=1 -run 'TestReopenCatchesUp|TestSkippedApplyBarsTheCheckpoint|TestLineageOnlyKeepsItsWatermark|TestFailedOpenReleasesEverything|TestCloseReleasesDescriptors' ./internal/aion/
	$(GO) test -race -count=1 -run 'TestInvalidationPrecedesTheFirstWrite|TestFenceScanMatchesBruteForce|TestReplayCommittedDecodesOnly|TestFailedOpenClosesItsFiles' ./internal/lineagestore/ ./internal/timestore/ ./internal/hostdb/
	$(GO) test -run '^$$' -bench BenchmarkReopen -benchtime 1x ./internal/system/

# The heap attribution of a reopened store with the benchmark's dataset
# shape, in one command: BenchmarkResident reports the live heap (MiB and
# bytes per update; it fails over its budget) and writes a heap profile at
# its measurement point — the store open, two collections done — which pprof
# then prints by owner (what is not under a named owner is folded into the
# nearest one above it) and by allocation site. Sampling every 4 KiB keeps
# the rows within ~1 %. The resident LPG has one owner: the target fails when
# hostdb.Open and timestore.Open each hold more than 10 MB. The benchmark's
# second phase is the cached-graphs row: cache-heap-MiB, what reading the
# newest quarter of history through a 48 MiB GraphStore adds to the live heap
# (with how many entity versions were loaded and how many of them are the
# latest graph's own objects): 6.95, 8.0 with a 40-byte model.Value, 14.5 when
# a loaded graph held vectors of its own; over 7.6 MiB fails the benchmark and
# the target. Its third phase is the write row: write-heap-MiB, what
# ingest-commit's four-statement cycle leaves on the live heap after 4 x 16 384
# single-statement commits: 10.8, 13.1 with a 40-byte Value, 17.5 when a pull
# cost the host a copy of its vectors; over 11.9 MiB fails both. The first
# row, heap-MiB, is 37.1 (47.8 with a 40-byte Value); over 211 B per update
# fails.
HEAP_OWNERS = system\.Open$$|hostdb\.Open$$|aion\.Open$$|timestore\.Open$$|lineagestore\.Open$$|pagecache\.|strstore\.
heap-budget:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench BenchmarkResident -benchtime 1x -memprofilerate 4096 ./internal/system/ -resident.profile=$(CURDIR)/.bench_build/heap.pprof
	$(GO) tool pprof -sample_index=inuse_space -unit=mb -top -show='$(HEAP_OWNERS)' .bench_build/heap.pprof > .bench_build/heap-owners.txt
	@cat .bench_build/heap-owners.txt
	@awk '/hostdb\.Open$$/ {h = $$1 + 0} /timestore\.Open$$/ {t = $$1 + 0} \
		END {if (h > 10 && t > 10) {printf "heap-budget: two resident copies of the current graph: hostdb.Open %.1f MB, timestore.Open %.1f MB\n", h, t; exit 1}}' .bench_build/heap-owners.txt
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=12 .bench_build/heap.pprof

# The disk twin of heap-budget: BenchmarkDisk loads the benchmark's dataset
# shape, closes it cleanly and prints what it occupies by owner — host
# records, host log, TimeStore log, fulls and deltas, LineageStore trees,
# string tables — in bytes and bytes per update, accounted the way
# benchmark/'s disk_bytes is — plus one row per LineageStore tree (bytes,
# entries, mean key and value bytes, fill). It fails when the TimeStore log is
# over 14.5 B/update or its chain (fulls + deltas) over 29 — one length+CRC
# frame a record creeping back in crosses either — or the chain holds a file
# the catalogue does not count, or when the four LineageStore trees are over
# 75 B/update.
disk-budget:
	$(GO) test -run '^$$' -bench BenchmarkDisk -benchtime 1x ./internal/system/

# The read-path twin of the two budgets above: BenchmarkExpand1 runs
# point-history's expand class — a node's outgoing relationships at an instant
# — 20 000 times against the LineageStore of the benchmark-shaped store and
# reports nanoseconds and page-cache accesses (hits + misses, an exact count at
# a fixed iteration count) per returned relationship. It fails above 3.46
# accesses, half of what the read path cost before every entity read became
# one descent.
expand-budget:
	$(GO) test -run '^$$' -bench BenchmarkExpand1 -benchtime 20000x ./internal/system/
