# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short race lint lint-sarif lint-ignores \
	lint-prune bench bench-all eval eval-quick \
	fuzz fuzz-trajectory fuzz-trace fuzz-v2v maps serve soak clean

all: build test

build:
	go build ./...

test:
	go test ./...

test-short:
	go test -short ./...

# Race coverage is repo-wide; -short keeps the heavyweight eval scenarios
# out so the run stays in CI-friendly territory.
race:
	go test -race -short ./...

# Static analysis: go vet plus the six domain-aware analyzers in
# cmd/rups-lint (see docs/STATIC_ANALYSIS.md). Accepted findings live in
# the committed lint-baseline.json, each entry carrying a "why"
# justification; anything not in the baseline fails the build.
lint:
	go vet ./...
	go run ./cmd/rups-lint -baseline lint-baseline.json ./...

# SARIF 2.1.0 report for CI annotation (same findings as `make lint`).
lint-sarif:
	go run ./cmd/rups-lint -baseline lint-baseline.json -json ./... > rups-lint.sarif

# Audit every lint:ignore suppression; fails if one lacks a justification.
lint-ignores:
	go run ./cmd/rups-lint -list-ignores ./...

# Baseline freshness: fail if a committed baseline entry no longer fires —
# the finding was fixed, so the stale suppression must be dropped
# (go run ./cmd/rups-lint -baseline lint-baseline.json -prune-baseline rewrite ./...).
lint-prune:
	go run ./cmd/rups-lint -baseline lint-baseline.json -prune-baseline check ./...

# The perf trajectory: run the search, engine, warm-start, and
# telemetry-overhead benchmarks, then merge the current record with the
# committed previous-PR record (raw lines inside are benchstat-compatible).
# Override the triple to regenerate an older record:
#   make bench BENCH_BASELINE=results/bench_pr3_current.txt \
#              BENCH_CURRENT=results/bench_pr4_current.txt BENCH_OUT=BENCH_4.json
# BenchmarkSearcherInstrumented vs the baseline BenchmarkFindSYNs is the
# disabled-telemetry overhead check: it must stay within ~2% ns/op and at
# identical allocs/op. BenchmarkEngineSteadyState Warm vs Cold tracks the
# warm start: since the floored SYN scan the cold path is cheap too, and the
# last interleaved medians were 1.36 vs 1.62 ms per tick (about 1.2×).
BENCH_BASELINE ?= results/bench_pr4_current.txt
BENCH_CURRENT  ?= results/bench_pr5_current.txt
BENCH_OUT      ?= BENCH_5.json

bench:
	go test -run XXXNONE \
		-bench 'BenchmarkFindSYNs$$|BenchmarkFindSYNsNoSYN|BenchmarkSearcherInstrumented|BenchmarkEngineResolve|BenchmarkEngineSteadyState' \
		-benchmem -count 3 . | tee $(BENCH_CURRENT)
	go run ./cmd/rups-bench -baseline $(BENCH_BASELINE) \
		-current $(BENCH_CURRENT) -out $(BENCH_OUT)

# The full suite (one benchmark per paper table/figure plus cost models).
bench-all:
	go test -run XXXNONE -bench=. -benchmem ./...

eval:
	go run ./cmd/rups-eval -csv results

eval-quick:
	go run ./cmd/rups-eval -quick

# All fuzzers always run, even when an earlier one finds a crasher; the
# exit status still reflects any failure. Seed corpus entries live in each
# package's testdata/fuzz/ directory.
fuzz:
	@rc=0; \
	$(MAKE) fuzz-trajectory || rc=1; \
	$(MAKE) fuzz-trace || rc=1; \
	$(MAKE) fuzz-v2v || rc=1; \
	exit $$rc

fuzz-trajectory:
	go test -run FuzzUnmarshalBinary -fuzz FuzzUnmarshalBinary -fuzztime 30s ./internal/trajectory/

fuzz-trace:
	go test -run FuzzReadFrom -fuzz FuzzReadFrom -fuzztime 30s ./internal/trace/

fuzz-v2v:
	go test -run FuzzV2VDecode -fuzz FuzzV2VDecode -fuzztime 30s ./internal/v2v/

maps:
	go run ./cmd/rups-map -out docs/city.svg
	go run ./cmd/rups-map -scenario -out docs/scenario.svg

# The resolution service on its default port with the debug endpoint up
# (see docs/SERVICE.md); Ctrl-C drains gracefully.
serve:
	go run ./cmd/rups-serve -debug-addr 127.0.0.1:6060

# Two-phase service soak (scripts/soak.sh): overload + faults + mid-run
# SIGTERM must degrade explicitly (refusals, evictions, one drain); a
# clean restart must keep every failure counter at zero with the
# resolve-latency SLO unbreached. Artifacts land in soak-out/.
soak:
	bash scripts/soak.sh

clean:
	rm -f drive.rupt rups-lint.sarif
	rm -rf soak-out
