GO ?= go

.PHONY: all build test race lint lint-json lint-sarif fmt fmt-check vet check bench bench-parity bench-smoke bench-check chaos-smoke scenarios scenarios-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the in-tree analyzer suite (see STATIC_ANALYSIS.md).
lint:
	$(GO) run ./cmd/escort-lint ./...

# lint-json emits the same findings as a machine-readable document.
lint-json:
	$(GO) run ./cmd/escort-lint -json ./...

# lint-sarif writes escort-lint.sarif for CI artifact upload.
lint-sarif:
	$(GO) run ./cmd/escort-lint -sarif ./... > escort-lint.sarif

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# check is what CI runs (minus the networked staticcheck/govulncheck job).
check: fmt-check vet build lint test

# bench regenerates BENCH_7.json: conn/s per Figure 8 point, the sweep
# runner's sims/sec (serial vs parallel), and the engine hot path's
# ns/op, with bytes/op + allocs/op promoted to first-class fields so
# allocation regressions diff directly. bench-parity then diffs it
# against BENCH_6.json (structural metrics tight, timed metrics within
# noise); the hotpathalloc analyzer guards the paths these numbers
# price.
bench:
	{ $(GO) test -run '^$$' -bench 'Fig8' -benchmem . && \
	  $(GO) test -run '^$$' -bench 'Engine' -benchmem ./internal/sim; } \
	  | $(GO) run ./cmd/benchjson > BENCH_7.json
	@cat BENCH_7.json

# bench-parity asserts the fault-free numbers did not move: allocs/op
# and bytes/op within structural tolerance, conn/s and ns/op within
# machine noise, against the previous committed document.
bench-parity:
	$(GO) run ./cmd/benchjson -compare BENCH_6.json BENCH_7.json

# bench-smoke is the CI guard: one iteration of every Figure 8
# benchmark under the race detector, so the parallel sweep path stays
# race-clean without paying for a full benchmark run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Fig8' -benchtime 1x -race .

# bench-check builds and tests the host-cost benchmark module. bench/
# is its own Go module, so the root build and test never compile it; a
# change to an internal API it imports (fault.Spec, experiment.Options,
# scenario.RunPolicy) would otherwise surface only when the benchmark
# runs. Its tests include the seed-1 golden digests of every workload
# (bench/golden.json).
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# chaos-smoke is the CI soak: the kitchen-sink fault mix (network
# faults + failpoints + watchdog + shedding) against the Figure 8
# workload under the race detector. See ROBUSTNESS.md.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSmoke' -v ./internal/fault/

# scenarios regenerates SCENARIOS.json: every attack scenario under
# both defense policies (static thresholds and the adaptive anomaly
# detector), with the three detection-quality metrics per run. This is
# the committed baseline the detection-quality gate compares against.
scenarios:
	$(GO) run ./cmd/escort-bench -scenario all -report SCENARIOS.json

# scenarios-smoke is the CI gate: the attacked leg of one scenario per
# attack class (all five classes) under the race detector with both
# policies, detection and containment asserted — then the fresh
# scenario reports diffed against the committed SCENARIOS.json
# baseline (time-to-detect, false-kill rate, goodput retained; see
# cmd/benchjson for the tolerances). See ROBUSTNESS.md "Scenario
# catalog".
scenarios-smoke:
	$(GO) test -race -run 'TestScenariosSmoke' -v ./internal/scenario/
	$(GO) run ./cmd/escort-bench -scenario all -report /tmp/scenarios-new.json > /dev/null
	$(GO) run ./cmd/benchjson -compare SCENARIOS.json /tmp/scenarios-new.json
