# Development targets for the CoPart reproduction.

GO ?= go

.PHONY: all build vet lint test test-race cover bench bench-smoke bench-json bench-guard bench-fleet figures verify smoke clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet plus copartlint, the repo's own go/analysis-style
# suite (determinism over the deterministic packages' import closure,
# noalloc with its callee contract, directive hygiene, floatcmp — see
# DESIGN.md §10). CI runs this before the tests.
lint: vet
	$(GO) run ./cmd/copartlint ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/...

cover:
	$(GO) test -cover ./internal/... .

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's benchmark (benchmark/README.md) at toy sizes: all six
# workloads untraced and traced, every output check on, a few seconds.
bench-smoke:
	$(GO) run ./benchmark -smoke

# Machine-readable benchmark snapshot of the solver and experiment-engine
# hot paths: the heavy figure benchmarks at a fixed small iteration count,
# the ST oracle per mix size (its solved/op extra is the states one run
# solves at 4, 6 and 8 apps) and the microbenchmarks at a larger one
# (the sampling sweep, ~50 ns an op, at a larger one still: 1000
# iterations of it fit inside one timer tick), merged into one JSON file.
BENCHJSON_DATE ?= $(shell date +%F)
# Benchmark output is staged through a file, not piped live: in a pipe,
# `go run ./cmd/benchjson` compiles concurrently with the first
# benchmark and skews its timings on small machines.
BENCH_RAW ?= /tmp/bench-raw.txt
# The heavy macro benchmarks run with -count 3 so the snapshot records
# the run-to-run spread; benchguard compares the fastest record per name.
# Both snapshot targets merge into any existing BENCH_<date>.json
# (benchjson -merge): re-run benchmarks are deduped to min-of-runs and
# untouched entries survive, so bench-json and bench-fleet compose on
# the same day instead of clobbering each other. The merge stages
# through $(BENCH_MERGED) because redirecting onto the merge source
# would truncate it before benchjson reads it.
BENCH_MERGED ?= /tmp/bench-merged.json
# The committed snapshots are `procs: 1`, and at 2 procs the fleet
# benchmarks' 0-alloc baselines fail on ~10 worker-pool allocations, so
# the three snapshot/guard targets pin the variable themselves.
bench-json bench-fleet bench-guard: export GOMAXPROCS = 1
bench-json:
	{ $(GO) test -run xxx -bench 'BenchmarkFig12$$|BenchmarkFig1$$' -benchtime 2x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet256$$' -benchtime 5x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet4096$$' -benchtime 2x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkSTOracle$$' -benchtime 20x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkMachineSolve$$|BenchmarkGetNextSystemState4$$|BenchmarkManagerPeriod$$|BenchmarkManagerObservedPeriod$$|BenchmarkMachineStepRetired$$' -benchtime 1000x -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkSamplerSweep$$' -benchtime 1000000x -count 3 -benchmem . ; } \
	> $(BENCH_RAW)
	$(GO) run ./cmd/benchjson -merge BENCH_$(BENCHJSON_DATE).json < $(BENCH_RAW) > $(BENCH_MERGED)
	mv $(BENCH_MERGED) BENCH_$(BENCHJSON_DATE).json
	@cat BENCH_$(BENCHJSON_DATE).json

# Fleet-scale snapshot only: the Fleet256 steady-state budget, the
# Fleet4096/Fleet16384/Fleet65536 scale proofs (p99 period latency flat
# as nodes grow — compare the p99ns extras), the FleetChurn
# fleet-over-trace run, the three shapes of the repo benchmark's fleet
# workloads (FleetSteady1024, FleetNoisy1024 with jittered counters,
# FleetChurn2048; the first two 0 allocs/op), and a fleetbench
# -parallel sweep recording the 1/4/16-worker scaling of one fixed fleet
# (the block-batched dispatch must not regress at any worker count).
# All test-binary runs carry -benchmem so benchguard can hold the
# allocs_per_op and bytes_per_op lines. Emits the same dated JSON format
# as bench-json and merges the same way.
bench-fleet:
	{ $(GO) test -run xxx -bench 'BenchmarkFleet256$$' -benchtime 5x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet4096$$' -benchtime 2x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet16384$$' -benchtime 1x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet65536$$' -benchtime 1x -count 2 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleetChurn$$|BenchmarkFleetChurn2048$$' -benchtime 2x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleetSteady1024$$|BenchmarkFleetNoisy1024$$' -benchtime 5x -count 3 -benchmem . ; \
	  for wk in 1 4 16 ; do \
	    $(GO) run ./cmd/fleetbench -nodes 4096 -periods 50 -parallel $$wk -benchline BenchmarkFleetWorkers$$wk ; \
	  done ; } \
	> $(BENCH_RAW)
	$(GO) run ./cmd/benchjson -merge BENCH_$(BENCHJSON_DATE).json < $(BENCH_RAW) > $(BENCH_MERGED)
	mv $(BENCH_MERGED) BENCH_$(BENCHJSON_DATE).json
	@cat BENCH_$(BENCHJSON_DATE).json

# Guard the headline benchmarks against the newest committed BENCH_*.json:
# rerun them at the bench-json iteration counts and fail on a >20 % ns/op
# regression. Run this BEFORE bench-json — regenerating the snapshot first
# would compare the fresh run against itself. Baselines are machine-
# specific; see DESIGN.md §9 for the cross-machine caveat.
BENCHGUARD_CUR ?= /tmp/bench-guard-cur.json
bench-guard:
	{ $(GO) test -run xxx -bench 'BenchmarkFig12$$' -benchtime 2x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet256$$' -benchtime 5x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet4096$$' -benchtime 2x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet16384$$' -benchtime 1x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleet65536$$' -benchtime 1x -count 2 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleetChurn$$' -benchtime 2x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkFleetNoisy1024$$' -benchtime 5x -count 3 -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkMachineSolve$$' -benchtime 1000x -count 3 -benchmem . ; } \
	> $(BENCH_RAW)
	$(GO) run ./cmd/benchjson < $(BENCH_RAW) > $(BENCHGUARD_CUR)
	$(GO) run ./cmd/benchguard -base "$$(ls BENCH_*.json | sort | tail -1)" -cur $(BENCHGUARD_CUR) \
	  -bench BenchmarkFig12,BenchmarkMachineSolve,BenchmarkFleet256,BenchmarkFleet4096,BenchmarkFleet16384,BenchmarkFleet65536,BenchmarkFleetChurn,BenchmarkFleetNoisy1024

# Crash-safety gate: first the lint-suite fixture smoke (the antest
# golden fixtures are the fastest whole-stack check of the analyzers
# gating this build), then capture a real snapshot from copartd, verify
# its replay is deterministic (snap2test -check), and generate a pinned
# regression test from it and run it. The generated test lands in
# _verify/ — underscore-prefixed so ./... wildcards never pick it up;
# it is removed again on success and left behind for inspection on
# failure. The negative legs run built binaries under a 30 s SIGKILL
# timeout, so a regression that hangs fails the gate instead of stalling
# it: snap2test -check and copartd -restore must refuse a snapshot in
# wire-format version 1 (the format that still carried the score memo),
# naming the blob's version and the build's, and a snapshot claiming
# more RNG draws than its clock allows; copartd must reject a fault spec
# with an infinite overrun factor as a flag error (exit 2).
VERIFY_SNAP ?= /tmp/copart-verify-snap.json
VERIFY_BIN ?= $(VERIFY_SNAP).bin
VERIFY_V1 = internal/core/testdata/snapshot_v1.json
VERIFY_REFUSAL = 'snapshot version 1, this build reads version'
VERIFY_DRAWS = internal/core/testdata/snapshot_v2_draws.json
VERIFY_DRAWS_REFUSAL = 'RNG draws exceed'
VERIFY_RUN = timeout -s KILL 30
verify: build
	$(GO) test -run Fixture -count=1 ./internal/analysis
	mkdir -p $(VERIFY_BIN)
	$(GO) build -o $(VERIFY_BIN)/ ./cmd/copartd ./cmd/snap2test
	$(VERIFY_BIN)/copartd -mix H-Both -apps 4 -duration 60s -seed 1 -snapshot-exit $(VERIFY_SNAP) > /dev/null
	$(VERIFY_BIN)/snap2test -snapshot $(VERIFY_SNAP) -duration 30s -check
	! $(VERIFY_RUN) $(VERIFY_BIN)/snap2test -snapshot $(VERIFY_V1) -duration 30s -check 2> $(VERIFY_SNAP).err
	grep -q $(VERIFY_REFUSAL) $(VERIFY_SNAP).err
	! $(VERIFY_RUN) $(VERIFY_BIN)/copartd -restore $(VERIFY_V1) -duration 30s > /dev/null 2> $(VERIFY_SNAP).err
	grep -q $(VERIFY_REFUSAL) $(VERIFY_SNAP).err
	! $(VERIFY_RUN) $(VERIFY_BIN)/snap2test -snapshot $(VERIFY_DRAWS) -duration 30s -check 2> $(VERIFY_SNAP).err
	grep -q $(VERIFY_DRAWS_REFUSAL) $(VERIFY_SNAP).err
	! $(VERIFY_RUN) $(VERIFY_BIN)/copartd -restore $(VERIFY_DRAWS) -duration 30s > /dev/null 2> $(VERIFY_SNAP).err
	grep -q $(VERIFY_DRAWS_REFUSAL) $(VERIFY_SNAP).err
	$(VERIFY_RUN) $(VERIFY_BIN)/copartd -faults 'overrun=1x+Inf' > /dev/null 2> $(VERIFY_SNAP).err; test $$? -eq 2
	rm -rf _verify && mkdir _verify
	$(VERIFY_BIN)/snap2test -snapshot $(VERIFY_SNAP) -duration 30s -name Verify -o _verify/replay_test.go
	$(GO) test ./_verify/
	rm -rf _verify

# Black-box control-plane smoke: boot copartd with the admission API on
# loopback and drive add/reweight/remove, snapshot round-trip, and a
# /metrics scrape with curl. See scripts/smoke_copartd.sh.
smoke: build
	./scripts/smoke_copartd.sh

# Regenerate every table and figure of the paper into ./out/ (text, SVG,
# and the Figure 15 timeline as CSV) with one evaluate binary. Figure 16's
# file carries the convergence table too, and the extension runs write
# text only.
FIGURE_IDS = 1 2 3 4 5 6 11 12 13 14 15 17
figures:
	mkdir -p out
	$(GO) build -o out/evaluate ./cmd/evaluate
	{ out/evaluate -fig table1 && out/evaluate -fig table2; } > out/tables.txt
	for id in $(FIGURE_IDS); do out/evaluate -fig $$id -out out > out/fig$$id.txt || exit 1; done
	out/evaluate -fig convergence > out/fig16.txt
	out/evaluate -fig extended > out/fig12_extended.txt
	for id in dualsocket ablation; do out/evaluate -fig $$id > out/$$id.txt || exit 1; done

clean:
	rm -rf out
