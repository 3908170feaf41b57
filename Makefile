# Development targets for the CoPart reproduction.

GO ?= go

.PHONY: all build vet lint test test-race cover bench bench-smoke figures verify smoke clean

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
# Performance claims compare the working tree against a revision in
# alternating pairs of full runs: go run ./cmd/benchguard REV.
bench-smoke:
	$(GO) run ./benchmark -smoke

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
