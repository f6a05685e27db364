# Development entry points. CI runs `make verify` and `make bench`;
# everything here is plain Go tooling with no external dependencies.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint vet vuln verify bench results fuzz serve-smoke fabric-smoke store-smoke crash-smoke chaos

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# siptlint: the repo's own determinism/accounting/concurrency/contract
# analyzers (see internal/lint). Non-zero exit on any finding; -timing
# prints per-analyzer wall time so slow analyzers are visible.
lint:
	$(GO) run ./cmd/siptlint -timing ./...

vet:
	$(GO) vet ./...

# govulncheck is optional tooling: run it when installed, skip quietly
# in hermetic environments that cannot fetch it.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo 'vuln: govulncheck not installed, skipping'; \
	fi

verify:
	scripts/verify.sh

# Benchmark harness tests (bench/siptperf is its own module; see its
# README.md for running workloads and same-host A/B comparisons), plus
# one iteration of every Go benchmark in this module so a benchmark
# that fails is caught rather than only compiled.
bench:
	cd bench/siptperf && $(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Results record: re-run the full evaluation at the trace length
# results_full.txt was made with and fail on any difference, so the
# committed record cannot go stale. results_full.log holds only
# per-experiment timings and is not compared. About 1 min on 2 vCPUs.
results:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
		$(GO) run ./cmd/siptbench -records 250000 >"$$out" && \
		diff -u results_full.txt "$$out" && \
		echo 'results: results_full.txt is current'

# Service smoke: boot siptd on an ephemeral port, drive a run and a
# sweep through the HTTP API, then SIGTERM and require a clean drain.
serve-smoke:
	scripts/serve_smoke.sh

# Fabric smoke: boot two workers plus a coordinator and a single-node
# daemon, drive the same workload through both, and require the
# reports to be byte-identical (plus clean drains all round).
fabric-smoke:
	scripts/fabric_smoke.sh

# Store smoke: boot siptd with a persistent store, ingest a trace,
# sweep, kill and restart over the same directory; the warm sweep must
# come back byte-identical from disk with zero simulations.
store-smoke:
	scripts/store_smoke.sh

# Crash smoke: boot siptd with a job journal, SIGKILL it mid-sweep,
# restart over the same directories; the revived daemon must resume the
# sweep from its lane checkpoints and serve a byte-identical report
# with dense job IDs.
crash-smoke:
	scripts/crash_smoke.sh

# Chaos: the fault-injection acceptance suite (internal/fault) under the
# race detector — seeded panics, evictions, and transient failures
# against the full serving stack. Short mode keeps it CI-sized. This is
# the suite's one test list: scripts/verify.sh runs this target.
chaos:
	$(GO) test -race -short -run 'TestChaos|TestDecideMatchesFire' ./internal/fault/
	$(GO) test -race -short -run 'TestPanicIsolation|TestInjectedWorkerPanic' ./internal/sched/
	$(GO) test -race -short -run 'TestChaos' ./internal/fabric/

# Native Go fuzzing over the pure bit-math and allocator invariants,
# the buddy allocator, address space, core timing model, L1/LLC cache,
# TLB and memo cache against their plain references, replayed workload
# programs against live generators, the sized perceptron against the
# fixed one, plus the lint loader/dataflow stack on generated Go
# sources. CI's fuzz job runs this target.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzIndexDelta -fuzztime=$(FUZZTIME) ./internal/memaddr/
	$(GO) test -run='^$$' -fuzz=FuzzUnchangedBits -fuzztime=$(FUZZTIME) ./internal/memaddr/
	$(GO) test -run='^$$' -fuzz=FuzzAlignAndLog2 -fuzztime=$(FUZZTIME) ./internal/memaddr/
	$(GO) test -run='^$$' -fuzz=FuzzBuddy -fuzztime=$(FUZZTIME) ./internal/vm/
	$(GO) test -run='^$$' -fuzz=FuzzAddressSpaceMatchesReference -fuzztime=$(FUZZTIME) ./internal/vm/
	$(GO) test -run='^$$' -fuzz=FuzzProgramMatchesLive -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzCoreMatchesReference -fuzztime=$(FUZZTIME) ./internal/cpu/
	$(GO) test -run='^$$' -fuzz=FuzzCacheMatchesLRUReference -fuzztime=$(FUZZTIME) ./internal/cache/
	$(GO) test -run='^$$' -fuzz=FuzzTLBMatchesReference -fuzztime=$(FUZZTIME) ./internal/tlb/
	$(GO) test -run='^$$' -fuzz=FuzzSizedPerceptronMatchesPerceptron -fuzztime=$(FUZZTIME) ./internal/predictor/
	$(GO) test -run='^$$' -fuzz=FuzzCacheMatchesReference -fuzztime=$(FUZZTIME) ./internal/memo/
	$(GO) test -run='^$$' -fuzz=FuzzLoader -fuzztime=$(FUZZTIME) ./internal/lint/
	$(GO) test -run='^$$' -fuzz=FuzzReadBuffer -fuzztime=$(FUZZTIME) ./internal/tracefile/
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalRoundTrip -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/journal/
