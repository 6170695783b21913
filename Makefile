GO ?= go

.PHONY: build test bench benchall bench-smoke bench-check bench-ab vet race fuzz chaos crash check equiv lint degradation topo-equiv serve fleet repro flowbench

# The benchmark set committed to BENCH_mapper.json (and gated by bench-check).
BENCH_PATTERN = BenchmarkSearchLayer|BenchmarkEngineEvalModelResNet50|BenchmarkEngineGranularityCold|BenchmarkServeReferenceTrace|BenchmarkSweep

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the mapper-search and model-evaluation benchmarks and commits
# the numbers to BENCH_mapper.json (via cmd/benchjson), including the derived
# exhaustive-vs-pruned speedup and allocation ratios.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=1 . \
		| $(GO) run ./cmd/benchjson -o BENCH_mapper.json
	@cat BENCH_mapper.json

# bench-check re-measures the committed benchmark set and fails on a >25%
# ns/op regression of any search/engine/sweep benchmark against the committed
# BENCH_mapper.json baseline.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=1 . \
		| $(GO) run ./cmd/benchjson -check BENCH_mapper.json

# bench-ab compares the working tree against the revision BASE on the
# committed benchmark set: it exports BASE into a temporary directory,
# builds both test binaries, runs them N times each, alternating which side
# goes first so that an order effect falls on both sides, and prints each
# benchmark's median head/base ns/op ratio and the pairs the working tree
# won. It fails when a search/engine/sweep benchmark's median ratio is
# above 1.25 and the working tree loses at least two thirds of the pairs.
# The export is a `git archive`, so an interrupted run leaves no registered
# worktree behind.
# Usage: make bench-ab BASE=<rev> N=<pairs>.
N ?= 10
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> N=<pairs>" >&2; exit 2; }
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base" && git archive "$(BASE)" | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base.test" .) && \
	$(GO) test -c -o "$$tmp/head.test" . || exit 1; \
	base() { (cd "$$tmp/base" && "$$tmp/base.test" -test.run '^$$' -test.bench '$(BENCH_PATTERN)' -test.benchmem -test.timeout 10m) >>"$$tmp/base.txt"; }; \
	head() { "$$tmp/head.test" -test.run '^$$' -test.bench '$(BENCH_PATTERN)' -test.benchmem -test.timeout 10m >>"$$tmp/head.txt"; }; \
	for i in $$(seq $(N)); do \
		echo "bench-ab: pair $$i of $(N)" >&2; \
		if [ $$((i % 2)) -eq 1 ]; then base && head; else head && base; fi || exit 1; \
	done; \
	$(GO) run ./cmd/benchjson -ab "$$tmp/base.txt" <"$$tmp/head.txt"

# benchall is the full suite across every package (the pre-perf-PR `bench`).
benchall:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke is the CI variant: one iteration per benchmark, just to prove
# the harness and the benchjson pipeline still run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchLayer' -benchtime 1x -benchmem -count=1 . \
		| $(GO) run ./cmd/benchjson

# equiv pins the branch-and-bound search to the exhaustive reference across
# the model zoo under the race detector (the perf-PR correctness gate), holds
# score ties to the exhaustive order at every worker count, holds searches
# that share pooled worker scratch to fresh references, and holds the
# search's analysis-free stage pricing to the C³P analysis it replaces,
# explore's per-axis traffic parts to the record they split, its
# rate card to the per-call pricing formula and to every pricing entry
# point, its shape-returning feasibility check to Validate plus Shape, its
# group, subgroup and cell bounds below every member variant's stage energy,
# its cell-level activation terms to the C³P walks they fold, the tables it
# composes its bound terms from to those terms recomputed directly, the
# bounds it prices from folded prefixes bit for bit to the card's total of
# the traffic record assembled from the same terms, and the
# buffer-need rejects it applies above the cell level to exactly the
# probes Feasible rejects, and its core-tile list to every square tile whose
# O-L1 and A-L1 needs fit; the search equivalence runs on the case-study
# point, scaled-up memory and Table II memory down to each axis' minimum,
# over the zoo's dense layers and MobileNetV2's grouped and depthwise ones.
# It also holds the shared tile iterator to exactly-once coverage in
# AppendNest's order, the mapped execution to the reference under all four
# temporal orders, and Trace to its recorded golden output.
equiv:
	$(GO) test -race -count=1 -run 'TestCoreTilePairsRespectBuffers|TestScanFilterExact|TestGroupBoundAdmissible|TestActivationTermsExact|TestBoundTablesExact|TestBoundPrefixMatchesRecord|TestSearchAllMatchesExhaustive|TestSearchAllWorkersInvariant|TestBestPerSpatialCombo|TestSearchScratch|TestSearchDeterministicOnTies|TestStageTrafficMatchesAnalysis|TestAxisPartsSplitTrafficAt|TestCardMatchesPrice|TestPricingKernelEquivalence|TestFeasibleShapeMatchesShape|TestTilesCoverOutputOnce|TestExecuteMappedMatchesReference|TestTraceGolden' ./internal/mapper ./internal/c3p ./internal/energy ./internal/dse ./internal/mapping ./internal/functional ./internal/sim

vet:
	$(GO) vet ./...

# lint fails when gofmt would reformat any file, then runs staticcheck when
# it is installed (CI installs it; locally it is optional) on top of go vet.
# `go run`-ing the tool would add a dependency to go.mod, so the binary is
# looked up on PATH instead.
lint: vet
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# degradation runs the yield-aware robustness gate: ring rerouting identities,
# fault-mask canonicalization, degraded-search equivalence, scenario sweep
# determinism and kill/resume round trips, all under the race detector.
degradation:
	$(GO) test -race -count=1 -run 'TestNewRingUnder|TestRingDegenerate|TestFaultMask|TestParseFaultMask|TestDegrade|TestEnvelope|TestYield|TestSearchAllMatchesExhaustiveDegraded|TestSearchDegradedCostsMore|TestEvalScenario|TestDegradationSweep|TestCacheKeyFaultSeparation|TestCacheFaultErrorEviction|TestScenarioPointKey' \
		./internal/noc ./internal/hardware ./internal/mapper ./internal/faults ./internal/engine

# topo-equiv is the topology-refactor correctness gate: the generic graph
# engine must reproduce the ring's closed forms exactly (healthy, and under
# every fault mask over 2-8 positions), the simulator must be byte-identical
# on either ring implementation across searched zoo mappings, and the engine
# cache must key ring/mesh/torus separately, and every pricing entry point
# (the fabric's rate card included) must price a mapping exactly as the
# search does on ring, mesh, torus and a degraded ring, the rate card must
# match the per-call pricing formula bit for bit, explore's cell-wise
# memory-grid re-pricing must match the per-point reference, its grid
# kernel must price every candidate exactly as its TrafficAt record on
# either side of each critical capacity, and the trace
# must pay the fabric's own round synchronization — all under the race
# detector.
topo-equiv:
	$(GO) test -race -count=1 -run 'TestGenericRing|TestMeshTorus|TestGridDims|TestTopologyConstructorErrors|TestDegradedMeshReroutes|TestNewInterconnect|TestParseTopology|TestTopology|TestConfigTupleTopologySuffix|TestConfigValidateTopology|TestSimZooRingGenericEquivalence|TestCacheKeyTopologySeparation|TestEvalTopologyCostOrdering|TestGranularityTopologyAxis|TestGranularityMeshCostsAtLeastRing|TestPricingKernelEquivalence|TestExploreMatchesReference|TestGridKernelMatchesTrafficAt|TestCardMatchesPrice|TestTraceRotationRoundSync' \
		./internal/noc ./internal/hardware ./internal/sim ./internal/engine ./internal/dse ./internal/energy

# serve is the serving-simulation determinism gate: trace parsing, DES
# batching/queueing semantics, the single-request EvalModel identity, and the
# byte-identical-report invariant across engine worker counts and repeated
# runs (healthy and degraded), all under the race detector.
serve:
	$(GO) test -race -count=1 -run 'TestParseTrace|TestReferenceTrace|TestSimulate|TestConfigValidate|TestSingleRequestLatencyEqualsEvalModel|TestBuildOracle|TestServeReport' ./internal/serve

# -shuffle=on randomizes test and subtest order each run, so inter-test
# state dependencies surface in CI instead of in production. The lease
# takeover race then runs 500 more times and ParallelFor's cancelled-context
# check 200 more: their claims (exactly one winner; no body after
# cancellation) only fail on rare interleavings.
race:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -count=500 -run 'TestTakeoverRaceSingleWinner$$' ./internal/lease
	$(GO) test -race -count=200 -run 'TestParallelForCancellation$$' ./internal/par

# fuzz is a short smoke run of the parser fuzzers — long enough to re-find
# the historical zero-stride crashers, short enough for CI. Covers the
# model-description parser and the serving arrival-trace parser.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/workload
	$(GO) test -fuzz=FuzzParseTrace -fuzztime=10s ./internal/serve
	$(GO) test -fuzz=FuzzCacheDecode -fuzztime=10s ./internal/store

# chaos runs the fault-injection suite under the race detector: injected
# panics, deadline overruns, transient errors, mid-sweep cancellations and
# checkpoint kill/resume round trips against the real evaluation paths
# (see DESIGN.md "Resilience model"). Five passes, because the cancel and
# journal-append ordering of the point runner only fails on rare
# interleavings.
chaos:
	$(GO) test -race -count=5 -run '^TestChaos' ./internal/engine ./internal/dse

# crash is the worker-death recovery gate: a sharded-sweep subprocess is
# SIGKILLed mid-shard, a surviving worker reclaims its expired lease and the
# merged worker journals must be byte-identical to a single-process run —
# plus the torn-journal and persistent-cache corruption recovery suites.
crash:
	$(GO) test -race -count=1 -run 'TestChaosShardedWorkerKillReclaimMerge|TestShardedExplore|TestJournalCrashTruncationSweep|TestJournalBufferedCrashTruncationSweep|TestMergeFiles|TestDiskCache|TestStoreTornTail|TestStoreCorruptRecordQuarantined' \
		./internal/dse ./internal/ckpt ./internal/engine ./internal/store

# fleet is the coordinator crash-recovery gate: the fleet control-service
# suite plus the fleetd SIGKILL chaos test (kill the coordinator mid-study,
# restart it, the study completes with merged bytes identical to a
# single-process run, and SIGTERM drains to a clean exit), under the race
# detector. The idle-worker wake tests run 50 times over, to catch a lost
# wake-up that only a rare interleaving shows (~65 s, mostly held waits).
fleet:
	$(GO) test -race -count=1 ./internal/fleet
	$(GO) test -race -count=50 -run 'TestFleetWait|TestFleetIdleWorkerWakesOnSubmit' ./internal/fleet
	$(GO) test -race -count=1 -run 'TestChaosFleetd' ./cmd/nnbaton-fleetd

# repro is the golden reproduction gate: it rebuilds cmd/experiments, reruns
# every experiment on the default ring and on the 2D mesh, and fails when
# either output differs from its committed golden file (experiments_full.txt
# and experiments_mesh.txt). Regenerate them with
# `go run ./cmd/experiments -exp all > experiments_full.txt` and
# `go run ./cmd/experiments -exp all -topology mesh > experiments_mesh.txt`
# only when a change is meant to move a reported number.
repro:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	"$$tmp/experiments" -exp all >"$$tmp/out.txt" && \
	diff -u experiments_full.txt "$$tmp/out.txt" && \
	"$$tmp/experiments" -exp all -topology mesh >"$$tmp/mesh.txt" && \
	diff -u experiments_mesh.txt "$$tmp/mesh.txt"

# flowbench vets and tests the flow benchmark. It is a Go module of its own,
# so `go build ./...` and `go test ./...` never compile it, and a change to
# a package it calls could otherwise break the benchmark unnoticed.
flowbench:
	cd flowbench && $(GO) vet . && $(GO) test -count=1 .

# check is the pre-merge gate: static analysis, the full suite under the
# race detector (the engine is concurrent; plain `go test` won't catch
# races), the flow benchmark's own checks, and the benchmark regression gate
# against BENCH_mapper.json.
check: vet race flowbench bench-check
