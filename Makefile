GO ?= go

.PHONY: all build test race lint lint-json lint-sarif fmt fmt-check tidy-check vet check bench-check scenarios profile-allocs

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

# tidy-check fails if go mod tidy would change either module's go.mod
# (the root module and the bench/ module).
tidy-check:
	$(GO) mod tidy && git diff --exit-code -- go.mod
	$(GO) -C bench mod tidy && git diff --exit-code -- bench/go.mod

vet:
	$(GO) vet ./...

# check is what CI's test job runs, in the same order (the networked
# staticcheck/govulncheck job and the SARIF upload aside).
check: fmt-check tidy-check vet build lint race bench-check

# bench-check builds and tests the host-cost benchmark module. bench/
# is its own Go module, so the root build and test never compile it; a
# change to an internal API it imports (fault.Spec, experiment.Options,
# scenario.RunPolicy) would otherwise surface only when the benchmark
# runs. Its tests include the seed-1 golden digests of every workload
# (bench/golden.json).
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# scenarios regenerates SCENARIOS.json: every attack scenario under
# both defense policies (static thresholds and the adaptive anomaly
# detector), with the three detection-quality metrics per run. This is
# the committed baseline TestScenariosBaseline (internal/scenario)
# gates detection quality against. See ROBUSTNESS.md "Scenario
# catalog".
scenarios:
	$(GO) run ./cmd/escort-bench -scenario all -report SCENARIOS.json

# profile-allocs records the heap allocations of one Figure 8 best-effort
# run (BenchmarkFig8Scout1B) and prints the allocation sites ranked by
# object count (every allocation recorded): the profile that names what a host-cost change made
# cheaper. The test binary and profile stay under .bench_build/.
profile-allocs:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkFig8Scout1B$$' -benchtime 3x -benchmem -memprofilerate 1 \
		-o .bench_build/repro.test -memprofile .bench_build/allocs.prof .
	$(GO) tool pprof -top -sample_index=alloc_objects .bench_build/repro.test .bench_build/allocs.prof
