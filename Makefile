GO ?= go
GOFMT ?= gofmt

.PHONY: build test race perf-gates vet fmt-check errcheck crossval golden golden-degraded golden-scenario golden-contention golden-machine-degraded golden-update spec-validate cachepass race-machine perfbench-test bench bench-step bench-step-smoke bench-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# perf-gates runs the same-binary performance gates without the race
# detector: the allocation pins (`//go:build !race` files — the race
# detector makes sync.Pool drop released items, so `make race` compiles
# them out), the step-vs-app per-run headroom, and the O(1) cluster
# bookkeeping check.
perf-gates:
	$(GO) test -count=1 -run 'AllocFree|Headroom|IndependentOf' ./...

vet:
	$(GO) vet ./...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@fmtout="$$($(GOFMT) -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi

# crossval races the tier cross-validation: the app-level reference and
# the step-based tier-0 on matched platform configs and seeds, under the
# race detector. The pattern also
# picks up TestCrossValidationStepBitIdentity in internal/stepsim — the
# full B/M1/M2 × platform × seed bit-identity matrix against crmodel.
crossval:
	$(GO) test -run TestCrossValidation -race ./...

# golden replays every registered experiment at the pinned regression
# parameters and compares each table cell against the committed goldens.
golden:
	$(GO) test -race -timeout 30m -count=1 -run TestGolden ./internal/experiments

# golden-degraded gates just the degraded-platform experiment: the
# fault-injection golden is the regression net for the injector's
# seed-derivation hygiene (a stray draw anywhere reshuffles every cell).
golden-degraded:
	$(GO) test -race -timeout 30m -count=1 -run 'TestGolden/degraded' ./internal/experiments

# golden-scenario gates just the scenario experiment: the committed
# golden pins every embedded spec's cells, so a drift in spec parsing,
# normalization, cohort scaling, or trace replay shows up as a cell diff.
golden-scenario:
	$(GO) test -race -timeout 30m -count=1 -run 'TestGolden/scenario' ./internal/experiments

# golden-contention gates just the multi-tenant contention experiment:
# its golden pins per-tenant slowdown/queue-wait/starvation under the
# shared bandwidth arbiter, so any drift in arbiter pricing, admission
# order, or the offset-start clock identity shows up as a cell diff.
golden-contention:
	$(GO) test -race -timeout 30m -count=1 -run 'TestGolden/contention' ./internal/experiments

# golden-machine-degraded gates the machine-scope fault-domain
# experiment: its golden pins the brownout repricing schedule, the
# drain-outage requeue order, the crash/requeue/give-up lifecycle, and
# the starvation-watchdog escalations — a stray draw on any machine
# fault substream reshuffles every cell.
golden-machine-degraded:
	$(GO) test -race -timeout 30m -count=1 -run 'TestGolden/machine-degraded' ./internal/experiments

# spec-validate checks every committed scenario spec and failure trace
# (examples/ plus the specs embedded in the scenario experiment) through
# the same strict load/validate path pckpt-sim -spec uses.
spec-validate:
	$(GO) run ./cmd/speccheck ./examples ./internal/experiments/specs

# golden-update regenerates testdata/golden after an intentional
# behaviour change; review the diff before committing.
golden-update:
	$(GO) test ./internal/experiments -count=1 -run TestGolden -update

# cachepass runs the cross-process cold-then-warm result-cache check:
# the same test twice against one shared cache directory — the first
# invocation simulates and populates, the second must resolve every
# configuration from disk and match an uncached reference bit-for-bit.
cachepass:
	@dir=$$(mktemp -d); \
	$(GO) test -race -timeout 30m -count=1 -run TestCacheColdWarm ./internal/experiments -cachedir $$dir && \
	$(GO) test -race -timeout 30m -count=1 -run TestCacheColdWarm ./internal/experiments -cachedir $$dir; \
	rc=$$?; rm -rf $$dir; exit $$rc

# bench runs the full benchmark suite (paper tables/figures plus the
# sim/queue/stepsim substrate micro-benchmarks) and writes the
# parsed results as a machine-readable artefact; see EXPERIMENTS.md for
# the schema and how to compare against the committed baseline.
BENCH_OUT ?= BENCH_PR9.json
BENCH_LABEL ?= PR9
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./... | $(GO) run ./cmd/benchfmt -label $(BENCH_LABEL) -out $(BENCH_OUT)

# bench-step runs just the step-vs-process headroom comparisons: the
# step engine's hot-path/interrupt micro-benches next to the process
# engine's equivalents (the events/sec ratio is the committed BENCH_PR7
# claim), plus the episode-machinery pair behind the step-tier default
# for P1/P2 (the commits/sec ratio is the committed BENCH_PR8 claim),
# the end-to-end P1/P2 step benches, and one step run per Table I app ×
# model on Titan with its allocations.
bench-step:
	$(GO) test -bench 'StepHotPath|StepInterrupt|StepEpisodeDrain|StepSimulateP|StepSimulateTableI' -run=^$$ ./internal/stepsim
	$(GO) test -bench 'WaitHotPath|InterruptHeavy' -run=^$$ ./internal/sim
	$(GO) test -bench 'EpisodeProcess' -run=^$$ ./internal/pckpt

# bench-step-smoke is the one-iteration variant of bench-step for CI:
# the episode benches (both engines) and the tier-0 micro-benches run
# once each, so the headroom pairs cannot rot unnoticed between
# baseline regenerations.
bench-step-smoke:
	$(GO) test -bench 'StepHotPath|StepInterrupt|StepEpisodeDrain|StepSimulateP|StepSimulateTableI' -benchtime=1x -run=^$$ ./internal/stepsim
	$(GO) test -bench 'WaitHotPath|InterruptHeavy' -benchtime=1x -run=^$$ ./internal/sim
	$(GO) test -bench 'EpisodeProcess' -benchtime=1x -run=^$$ ./internal/pckpt

# bench-smoke runs one iteration of every benchmark (the stepsim
# micro-benches included) through the same parser, so neither the
# benchmarks nor the harness can rot unnoticed.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./... | $(GO) run ./cmd/benchfmt -out /dev/null >/dev/null

# race-machine is a focused race pass over the shared-machine layer:
# the arbiter, admission plane, and SimulateN's cross-run worker pool
# (the machine tests include a DeepEqual worker-determinism sweep).
race-machine:
	$(GO) test -race -timeout 30m -count=1 ./internal/machine

# perfbench-test vets and tests the benchmark harness. perfbench is its
# own module (it replaces pckpt with the parent directory), so the root
# `go build ./...` and `go test ./...` skip it even though it imports
# the simulator's APIs; this target keeps those imports compiling.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# errcheck flags discarded results (a bare `p.Wait(d)` or `s.Validate()`
# statement) in non-test code — the class of bug vet misses.
errcheck:
	$(GO) run ./cmd/vet-ignored ./internal ./cmd

# ci is the full gate: formatting, vet, the ignored-result check (the
# interruptible sim calls, the fault-injector draws, bare Validate()
# statements, and the episode lifecycle hooks), build, scenario-spec
# validation, the FULL race-enabled test suite (no -short: the
# worker-determinism sweeps and injection bit-identity tests must run
# raced — they are exactly the tests that catch cross-worker
# nondeterminism), the non-race performance gates (allocation pins and
# same-binary headroom, which the race build cannot run), a dedicated
# race pass over the tier cross-validation (app + step), a focused race
# pass over the step tier's
# bit-identity matrix — all five models, episode machinery included —
# a focused race pass over the shared-machine arbiter/admission layer,
# the golden-table regression suite plus explicit degraded-platform,
# scenario, contention, and machine-degraded golden gates, the
# cold-then-warm cache pass, the perfbench module's vet and tests, and
# one-iteration smoke runs of the full benchmark suite and the
# step-vs-process headroom pairs.
ci:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(MAKE) errcheck
	$(GO) build ./...
	$(MAKE) spec-validate
	$(MAKE) race
	$(MAKE) perf-gates
	$(GO) test -run TestCrossValidation -race -timeout 30m ./...
	$(GO) test -run TestCrossValidationStep -race -timeout 30m ./internal/stepsim
	$(MAKE) race-machine
	$(MAKE) golden
	$(MAKE) golden-degraded
	$(MAKE) golden-scenario
	$(MAKE) golden-contention
	$(MAKE) golden-machine-degraded
	$(MAKE) cachepass
	$(MAKE) perfbench-test
	$(MAKE) bench-smoke
	$(MAKE) bench-step-smoke
