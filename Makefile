GO ?= go

.PHONY: all build test race lint lint-json lint-sarif fmt fmt-check tidy-check vet check bench-check bench-smoke fuzz-smoke scenarios profile-allocs

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
check: fmt-check tidy-check vet build lint race bench-smoke bench-check

# bench-smoke runs every benchmark of the root module once, so a
# benchmark broken by an API change (a panic, a failed setup) fails the
# build instead of surfacing at the next measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fuzz-smoke runs each native fuzz target for 10 s beyond its seed
# corpus, two workers at a time. Minimizing a newly interesting input
# stops after 1 s (Go's default is 60 s, which would eat the rest of
# the 10 s with no executions). A crasher lands under the target's
# testdata/fuzz directory; commit it with its fix.
FUZZ_TARGETS = \
	FuzzParseSpec:./internal/fault \
	FuzzParseRun:./internal/experiment \
	FuzzParseRequestLine:./internal/proto/http \
	FuzzPuzzleSolved:./internal/proto/wire \
	FuzzPuzzleRoundTrip:./internal/proto/wire \
	FuzzTCPFrameRoundTrip:./internal/proto/wire \
	FuzzARPFrameRoundTrip:./internal/proto/wire \
	FuzzParseEth:./internal/proto/wire \
	FuzzParseARP:./internal/proto/wire \
	FuzzParseIPv4:./internal/proto/wire \
	FuzzParseTCP:./internal/proto/wire \
	FuzzParsePacket:./internal/proto/wire \
	FuzzConnLifecycle:./internal/proto/tcp \
	FuzzDemux:./internal/escort

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "fuzz $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s -fuzzminimizetime 1s -parallel 2 $$pkg; \
	done

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

# profile-allocs records every heap allocation of a Figure 8 best-effort
# run on 1-byte pages (BenchmarkFig8Scout1B, where per-connection
# objects dominate) and of a 10 KB run with one protection domain per
# module (BenchmarkFig8AccountingPD10K, where per-byte copies dominate),
# and prints each one's allocation sites ranked by object count and by
# bytes: the profiles that name what a host-cost change made cheaper.
# The test binary and profiles stay under .bench_build/.
profile-allocs:
	mkdir -p .bench_build
	$(GO) test -c -o .bench_build/repro.test .
	@set -e; for b in Fig8Scout1B Fig8AccountingPD10K; do \
		.bench_build/repro.test -test.run '^$$' -test.bench "^Benchmark$$b\$$" -test.benchtime 3x \
			-test.benchmem -test.memprofilerate 1 -test.memprofile .bench_build/$$b.prof; \
		for idx in alloc_objects alloc_space; do \
			echo "== $$b by $$idx"; \
			$(GO) tool pprof -top -sample_index=$$idx .bench_build/repro.test .bench_build/$$b.prof; \
		done; \
	done
