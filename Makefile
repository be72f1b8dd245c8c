# Tier-1 verification gate and developer targets.
GO ?= go
# BENCH_STAMP names a benchmark archive: the local time to the second and
# the commit the benchmarked tree was built from.
BENCH_STAMP := $(shell date +%Y%m%dT%H%M%S)_$(shell git rev-parse --short HEAD 2>/dev/null || echo nogit)

.PHONY: build test check race-core race-serve vet-obs vet-sramperf fuzz-smoke loadtest-smoke yieldstream-smoke bench bench-compare bench-prune catalog loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the tier-1 gate: static analysis plus the full test suite under
# the race detector. ./... covers the golden-regression tests (root package
# and cmd/sramopt) and the serving layer's coalescing/drain tests, so check
# is also the service e2e gate. The core search engine and the server are
# explicitly concurrent — run this before every commit touching either. The
# formatting gate fails on any file gofmt would rewrite. The branch-and-bound
# parity gates run first and verbosely under the race detector, so a pruning
# correctness break is named in the output, not buried in ./... The fuzz
# targets then run briefly past their committed corpora. The benchmark
# module is vetted and tested too, so a break in the API it imports fails
# here rather than when the benchmark runs.
check: vet-obs
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test -race -run 'TestBranchAndBound' -v ./internal/core/
	$(GO) test -race ./...
	$(MAKE) vet-sramperf
	$(MAKE) loadtest-smoke
	$(MAKE) yieldstream-smoke
	$(MAKE) fuzz-smoke FUZZTIME=3s

# race-core is the fast inner loop: only the search-engine package under the
# race detector.
race-core:
	$(GO) test -race ./internal/core/...

# race-serve gates the HTTP serving layer on its own: the cache, coalescing,
# drain and deadline tests under the race detector.
race-serve:
	$(GO) test -race ./internal/serve/...

# fuzz-smoke runs each fuzz target briefly — long enough to catch a fresh
# decoder panic or validation regression, short enough for CI. The committed
# corpora under */testdata/fuzz seed every run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzDecodeBatch -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzConfigNormalize -fuzztime=$(FUZZTIME) ./internal/mc/
	$(GO) test -fuzz=FuzzRunMatchesOracle -fuzztime=$(FUZZTIME) ./internal/mc/
	$(GO) test -fuzz=FuzzOptionsNormalize -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzFrontMatchesOracle -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzLinearMatchesOracle -fuzztime=$(FUZZTIME) ./internal/num/
	$(GO) test -fuzz=FuzzBoundBelowPoints -fuzztime=$(FUZZTIME) ./internal/array/
	$(GO) test -fuzz=FuzzSearchDifferential -fuzztime=$(FUZZTIME) ./internal/core/

# loadtest-smoke drives a short closed-loop load burst through an in-process
# sramd with the real request mix; -check fails the target on zero recorded
# throughput, any transport error or any 5xx, so a serving-path regression
# that only shows under concurrency breaks the gate, not production.
loadtest-smoke:
	$(GO) run ./cmd/sramload -self -c 4 -warmup 500ms -duration 2s -check -report /dev/null

# yieldstream-smoke exercises the streaming Monte Carlo engine end to end: a
# scrambled-Sobol run must converge inside a 10% relative CI on μ-3σ before
# exhausting its 256-sample budget, or the early-stop machinery is broken.
yieldstream-smoke:
	$(GO) run ./cmd/mcyield -stream -rel-ci 0.1 -n 256 -sampler sobol -metric hsnm -seed 2 | grep -q 'converged inside rel CI'

# vet-obs gates the observability layer on its own: vet plus the obs package
# under the race detector (the sink/registry state is global and concurrent).
vet-obs:
	$(GO) vet ./internal/obs/... ./internal/cliutil/...
	$(GO) test -race ./internal/obs/...

# vet-sramperf vets and tests the sramperf benchmark, a separate module that
# imports internal/serve, array, cell, device, num and obs through a
# replace of ../ — ./... of this module does not reach it. -mod=readonly
# keeps the step from rewriting sramperf/go.mod.
vet-sramperf:
	cd sramperf && GOFLAGS=-mod=readonly $(GO) vet ./... && GOFLAGS=-mod=readonly $(GO) test ./...

# bench runs every benchmark across the module and archives the machine-
# readable log as BENCH_<yyyymmdd>T<hhmmss>_<short-sha>.json for regression
# comparison. The timestamp keeps a second archive of the same day from
# overwriting the first, and the names sort after the date-only
# BENCH_<yyyymmdd>.json archives of earlier rounds, so the newest archive is
# still the last one in sort order.
bench:
	$(GO) test -json -bench=. -benchmem -run='^$$'  -count=3 ./... | tee BENCH_$(BENCH_STAMP).json

# bench-compare re-runs the search, Monte Carlo and serving hot-path
# benchmarks and fails if any regressed by more than 10% against the most
# recent archived baseline — the last BENCH_<yyyymmdd>T<hhmmss>_<short-sha>.json
# (or date-only BENCH_<yyyymmdd>.json) in sort order. The current log is
# written to a name the baseline glob cannot match, so an aborted run never
# becomes the next baseline. Each benchmark runs -count=3 and benchcompare
# keeps the fastest run, so one slow iteration on a loaded machine does not
# fail the gate. Allocations repeat run to run, so allocs/op is gated at the
# same 10% with no slack for noise (none at all over a zero-allocation
# baseline). The work gate is exact: any increase of a deterministic work
# count both logs report (model-evals, units-prepared, bounds, newton-its,
# tran-steps, sweep-points) fails at once, naming the benchmark and counter.
BENCH_BASELINE = $(shell ls BENCH_2*.json 2>/dev/null | sort | tail -n 1)
bench-compare:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-compare: no BENCH_<yyyymmdd>T<hhmmss>_<short-sha>.json baseline; run 'make bench' first"; exit 1; }
	$(GO) test -json -bench='^(BenchmarkExhaustiveSearch16KB|BenchmarkParetoFront|BenchmarkHybridSearch16KB|BenchmarkModelEvaluation|BenchmarkMonteCarloYieldBatched|BenchmarkMonteCarloWriteMargin)$$' -benchmem -run='^$$'  -count=3 . > bench_current.tmp.json || { rm -f bench_current.tmp.json; exit 1; }
	$(GO) test -json -bench='^(BenchmarkServeOptimizeCached|BenchmarkServeOptimizeCatalogHit|BenchmarkBatch64)$$' -benchmem -run='^$$'  -count=3 ./internal/serve/ >> bench_current.tmp.json || { rm -f bench_current.tmp.json; exit 1; }
	$(GO) test -json -bench='^BenchmarkCatalogLookup$$' -benchmem -run='^$$'  -count=3 ./internal/catalog/ >> bench_current.tmp.json || { rm -f bench_current.tmp.json; exit 1; }
	$(GO) test -json -bench='^BenchmarkEvalSweep$$' -benchmem -run='^$$'  -count=3 ./internal/array/ >> bench_current.tmp.json || { rm -f bench_current.tmp.json; exit 1; }
	$(GO) run ./cmd/benchcompare -baseline $(BENCH_BASELINE) -current bench_current.tmp.json \
		BenchmarkExhaustiveSearch16KB BenchmarkParetoFront BenchmarkHybridSearch16KB BenchmarkModelEvaluation \
		BenchmarkMonteCarloYieldBatched BenchmarkMonteCarloWriteMargin \
		BenchmarkServeOptimizeCached BenchmarkServeOptimizeCatalogHit BenchmarkBatch64 \
		BenchmarkCatalogLookup BenchmarkEvalSweep; \
		status=$$?; rm -f bench_current.tmp.json; exit $$status

# bench-prune prints the branch-and-bound evaluated/pruned/skipped breakdown
# for the golden capacity grid, so a bound change that prunes less — while
# staying correct — is visible in review as an efficiency drop.
bench-prune:
	$(GO) run ./cmd/prunestats

# loc prints the non-blank, non-comment lines of non-test Go code per
# package directory and in total, leaving out the separate sramperf/ module
# and the benchmark's .bench_build/ cache: the line count a simplicity
# change reports before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './sramperf/*' ! -path './.bench_build/*' -print0 | \
		xargs -0 awk '!/^[[:space:]]*(\/\/|$$)/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d]++; t++ } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# catalog precomputes the default design-space grid into catalog.bin; sramd
# loads it with -catalog and answers grid lookups without running a search.
CATALOG ?= catalog.bin
catalog:
	$(GO) run ./cmd/sramcat build -o $(CATALOG)
