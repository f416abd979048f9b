GO ?= go

.PHONY: build examples test race vet lint cover loc bench-smoke paper benchmark-smoke benchmark-ab exact-diff fuzz-smoke stress replica-smoke timestore-sweep failover-sweep restart-sweep heap-budget disk-budget expand-budget

build:
	$(GO) build ./...

# Runs every program under examples/ end to end; fails on the first non-zero
# exit. (The aviation and window examples' output is also pinned byte for byte
# by golden tests under go test.)
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

test:
	$(GO) test ./...

# Race-checks every package under internal/ (all are expected to be
# race-clean): concurrent reads, group commit, the cascade and snapshot
# workers, replication.
race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (cmd/aionlint): vfs-seam, dropped
# durability errors, cancellation-blind loops, fsync-under-lock, untyped
# atomics, plus the flow-aware layer — lock-order cycles and string-flush
# ordering before WAL appends. Fails on any
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

# Non-test Go lines under internal/ and cmd/: the total, then production —
# everything outside internal/testkit/, the code a binary reaches (the root
# TestEveryFunctionIsReached fails on a function no main reaches, and on a
# binary that imports internal/testkit/) — then internal/testkit/, the test
# support no binary imports. Production and testkit each fail above the
# literal ceiling below; a change that must grow one raises its literal and
# says why in CHANGES.md.
LOC_FILES = find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'
loc:
	@echo "total $$($(LOC_FILES) | xargs cat | wc -l)"
	@n=$$($(LOC_FILES) ! -path 'internal/testkit/*' | xargs cat | wc -l); \
	echo "production $$n"; \
	[ $$n -le 21520 ] || { echo "loc: production code is $$n lines, over this recipe's ceiling" >&2; exit 1; }
	@n=$$($(LOC_FILES) -path 'internal/testkit/*' | xargs cat | wc -l); \
	echo "testkit $$n"; \
	[ $$n -le 2148 ] || { echo "loc: internal/testkit is $$n lines, over this recipe's ceiling" >&2; exit 1; }

# One iteration of the read-path micro-benchmarks (enough to catch
# regressions in the pipeline wiring without a full benchmark run) and the
# commit-throughput suite (group-commit pipeline vs serialised committers).
bench-smoke:
	$(GO) test -run '^$$' -bench 'SnapshotLoad|GetGraph$$' -benchtime 1x ./internal/timestore/
	$(GO) test -run '^$$' -bench 'CommitThroughput' -benchtime 100x ./internal/hostdb/

# The paper's figures and tables, every experiment of cmd/aion-bench at the
# default 1/1000 scale: each comparison warmed, then five timed rounds in
# alternating order, medians reported. Every printed table also lands in
# BENCH_paper.json (title, columns, rows; numeric cells as numbers), the
# CI-visible artifact. It fails, naming the figure, when Fig 10, 12 or 14
# loses the paper's shape. About 2 minutes on a 2-vCPU box.
paper:
	$(GO) run ./cmd/aion-bench -exp all -json BENCH_paper.json

# A one-second pass of the frozen end-to-end benchmark (benchmark/, the
# command BENCHMARK.json names): ~50 s including its build; exits non-zero
# on any oracle mismatch, lost durable write or broken layer isolation.
benchmark-smoke:
	bash benchmark/run.sh -seconds 1 -seed 1

# The behaviour criterion of a refactor, mechanically: benchmark-smoke on
# PARENT (a git ref) and on this tree, once per seed in SEEDS, then a
# field-by-field diff of the `# exact:` counters; fails at the first seed where
# a field not listed in ALLOW differs, naming the seed and the field.
#   make exact-diff PARENT=HEAD~1 SEEDS="1 7" ALLOW=disk_bytes
ALLOW ?=
SEEDS ?= 1 7
exact-diff:
	@for s in $(SEEDS); do SEED=$$s bash scripts/exact-diff.sh $(PARENT) $(ALLOW) || exit 1; done

# What a claim on a gated metric rests on: PAIRS alternating untraced runs of
# the frozen benchmark, PARENT (a git ref, copied out with git archive) against
# this tree, on one seed (SEED=1, RUN_SECONDS=20 from the environment); the
# exact counters must match on every pair (except ALLOW), then per workload and
# gated metric the medians, quartiles, wins/pairs and a verdict against
# BENCHMARK.json's bound. One workload is ~1 min a pair, all four ~12 min.
# PR is the number the BENCH_trajectory.json rows are recorded under; the
# target fails without it.
#   make benchmark-ab PARENT=HEAD~1 PR=66 WORKLOAD=point-history PAIRS=10
WORKLOAD ?= all
PAIRS ?= 10
benchmark-ab:
	PR=$(PR) bash scripts/benchmark-ab.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(ALLOW)

# Concurrent serving-path stress under the race detector: mixed
# reader/writer bolt clients against an undersized admission limit, plus the
# engine-level writer/reader mix, the cancellation suite and entity reads
# waiting for the cascade while the store closes.
stress:
	$(GO) test -race -count=2 -run 'Stress|Concurrent|Cancel|Deadline|Overload|Drain|Panic|Replica' ./internal/aion/ ./internal/bolt/ ./internal/cypher/ ./internal/hostdb/ ./internal/system/
	$(GO) test -race -count=1 ./internal/replica/

# Replication smoke over real TCP: a primary and two follower servers, one
# follower's stream killed mid-flight (it must reconnect and re-converge),
# plus dial-failure backoff.
replica-smoke:
	$(GO) test -race -count=1 -run 'TestReplicationOverTCP|TestFollowerReconnectBackoff' -v ./internal/replica/

# A short run of the decoders' fuzzers (recovery feeds the update and block
# decoders torn log tails; chain recovery feeds the delta-header decoder and
# the element reader arbitrary .dsnap bytes; LineageStore reads feed the key
# parsers and the version decoder B+Tree pages that carry no checksum; a follower decodes the host's
# commit records and the replication messages off the network; a LineageStore
# Open trusts its checkpoint file; the log, element files and messages are all
# split by wal.Cut; a server parses and runs any text a client sends): long
# enough to exercise the mutators, short enough for CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeUpdates -fuzztime 10s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBlock -fuzztime 10s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeDelta -fuzztime 6s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzParseKeys -fuzztime 5s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeVersion -fuzztime 5s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzReadElement -fuzztime 8s ./internal/timestore/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCommit -fuzztime 4s ./internal/hostdb/
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 3s ./internal/lineagestore/
	$(GO) test -run '^$$' -fuzz FuzzCut -fuzztime 3s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMessages -fuzztime 3s ./internal/replica/
	$(GO) test -run '^$$' -fuzz FuzzPrepare -fuzztime 5s ./internal/cypher/

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

# The TimeStore gate: the crash sweep, orphan-delta recovery and the
# cross-store equivalence harness (delta chains vs fulls only, byte-identical
# results, its own crash sweep) under the race detector. The history-depth
# sweep runs in `make paper`.
timestore-sweep:
	$(GO) test -race -count=1 -run 'TestCrashSweepTimeStore|TestRecoveryDropsOrphanDeltas' ./internal/timestore/
	$(GO) test -race -count=1 ./internal/tstest/

# The restart gate: the two-generation checkpoint crash sweep, the power cut at
# every mutating operation inside Close (a bare host and a system, commits not
# synced), the tests that the disk alone selects the catch-up path, that Close
# waits for an ApplyBatch under way, the LineageStore's watermark and
# failed-apply checkpoint tests, the failed-Open leak tests and the tail-only
# TimeStore recovery property, all under the race detector, then one timed
# reopen of the benchmark's dataset shape.
restart-sweep:
	$(GO) test -race -count=1 -run 'TestCrashSweepRestart|TestCrashSweepClose' ./internal/system/ ./internal/hostdb/
	$(GO) test -race -count=1 -run 'TestReopenCatchesUp|TestSkippedApplyBarsTheCheckpoint|TestFailedOpenReleasesEverything|TestCloseReleasesDescriptors|TestCloseWaitsForApplyBatch' ./internal/aion/
	$(GO) test -race -count=1 -run 'TestInvalidationPrecedesTheFirstWrite|TestFailedApplyBarsTheCheckpoint|TestCleanCloseKeepsTheWatermark|TestFenceScanMatchesBruteForce|TestReplayCommittedDecodesOnly|TestFailedOpenClosesItsFiles' ./internal/lineagestore/ ./internal/timestore/ ./internal/hostdb/
	$(GO) test -run '^$$' -bench BenchmarkReopen -benchtime 1x ./internal/system/

# The heap attribution of a reopened store with the benchmark's dataset
# shape, in one command: BenchmarkResident serves point-history's 20 000
# expand reads, reports the live heap (MiB and bytes per update; it fails over
# its budget) and writes a heap profile at its measurement point — the store
# open, the reads done, two collections done — which pprof then prints by
# owner (what is not under a named owner is folded into the nearest one above
# it) and by allocation site. Sampling every 4 KiB keeps the rows within ~1 %.
# The resident LPG has one owner: the target fails when hostdb.Open and
# timestore.Open each hold more than 10 MB. The benchmark's second phase is
# the cached-graphs row: cache-heap-MiB, what reading the newest quarter of
# history through a 48 MiB GraphStore adds to the live heap (with how many
# entity versions were loaded and how many of them are records shared with the
# latest graph): 3.38, 5.21 with labels or type and property slice in every
# record, 6.95 with a property map per entity, 14.5 when a loaded graph held
# vectors of its own; over 3.7 MiB fails the benchmark and the target. Its
# third phase is the write row: write-heap-MiB, what ingest-commit's
# four-statement cycle leaves on the live heap after 4 x 16 384
# single-statement commits, on the store reopened with an empty GraphStore,
# beyond host-write-heap-MiB, what the same commits leave in the bare host run
# alone over the closed directory (its graph grown by the 16 384 nodes they
# create): 0.18 beside 2.90, with no graph cached; over 1.8 MiB fails both. The first row, heap-MiB, is 13.45, the graph in immutable records
# pointing to shared attributes (14.5 with the
# attributes in every record, 33.2 with a *model.Node or *model.Rel and a
# property map per entity, 38.5 when on top the reads left their pages in heap
# frames); over 77 B per update fails, and so does a sum of the first row and
# the system's gross write growth over 17.7 MiB (16.5; 38.2 with property maps). A log line sets the
# resident bytes per entity (117.5) beside Table 3's accounting (95.9). The
# page cache holds no page on the heap:
# the target fails when anything under pagecache holds over 0.5 MB at the
# measurement point (2.2 when replay stamped the record stores through heap
# frames).
HEAP_OWNERS = system\.Open$$|hostdb\.Open$$|aion\.Open$$|timestore\.Open$$|lineagestore\.Open$$|pagecache\.|strstore\.
heap-budget:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench BenchmarkResident -benchtime 1x -memprofilerate 4096 ./internal/system/ -resident.profile=$(CURDIR)/.bench_build/heap.pprof
	$(GO) tool pprof -sample_index=inuse_space -unit=mb -top -show='$(HEAP_OWNERS)' .bench_build/heap.pprof > .bench_build/heap-owners.txt
	@cat .bench_build/heap-owners.txt
	@awk '/hostdb\.Open$$/ {h = $$1 + 0} /timestore\.Open$$/ {t = $$1 + 0} \
		END {if (h > 10 && t > 10) {printf "heap-budget: two resident copies of the current graph: hostdb.Open %.1f MB, timestore.Open %.1f MB\n", h, t; exit 1}}' .bench_build/heap-owners.txt
	@$(GO) tool pprof -sample_index=inuse_space -unit=mb -top -show='^aion/internal/pagecache\.' .bench_build/heap.pprof \
		| awk '/ aion\/internal\/pagecache\./ {m += $$1} END {if (m > 0.5) {printf "heap-budget: the page cache holds %.2f MB of pages on the heap\n", m; exit 1}}'
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=12 .bench_build/heap.pprof

# The disk twin of heap-budget: BenchmarkDisk loads the benchmark's dataset
# shape, closes it cleanly and prints what it occupies by owner — host
# records, host log, TimeStore log, fulls and deltas, LineageStore trees,
# string tables — in bytes and bytes per update, accounted the way
# benchmark/'s disk_bytes is — plus one row per LineageStore tree (bytes,
# entries, mean key and value bytes, fill) and Aion's share of the host's
# records and log. It fails when the TimeStore log is over 10.5 B/update or its
# chain (fulls + deltas) over 13.5 — 4-byte string refs creeping back in cross
# either — or the chain holds a file the catalogue does not count, when the
# three LineageStore trees are over 37.5 B/update — a rels.idx on disk again,
# 4-byte refs, 4-byte cell lengths or version records that repeat their key
# cross it — when Aion adds
# over 33 % to the host, or when the host's records and log are not exactly the
# bytes of the Neo4j store it emulates (7 177 500 + 38 720 016).
disk-budget:
	$(GO) test -v -run '^$$' -bench BenchmarkDisk -benchtime 1x ./internal/system/

# The read-path twin of the two budgets above: BenchmarkExpand1 runs
# point-history's expand class — a node's outgoing relationships at an instant
# — 20 000 times against the LineageStore of the benchmark-shaped store and
# reports nanoseconds and page-cache accesses (hits + misses, an exact count at
# a fixed iteration count) per returned relationship, then the accesses per
# returned relationship of as many incoming expands (in-gets/rel) and point
# relationship reads (point-gets/rel: the in-memory source index names the
# cluster, then one descent), then the hub row: expands of the 400 nodes with
# the most outgoing relationships at the last commit, in hub-ns/rel and
# allocs/rel. It fails above 0.70 accesses, the 0.640 of an expand that is one
# descent and one forward pass over the node's cluster + 10 % (0.683 when each
# relationship's walk sought its window and its last cell, 2.722 with a
# descent per relationship), above 5.0 point-gets/rel (4.17; 7.17 when a
# rels.idx descent named the cluster first) and above 1.5 allocs/rel (1.13:
# versions cut from a slab, a delta folded into its version's own map; 3.09
# with a version and a decoded map per record).
expand-budget:
	$(GO) test -run '^$$' -bench BenchmarkExpand1 -benchtime 20000x ./internal/system/
