GO ?= go

# Ratcheted coverage floors for the packages that carry the fault-
# injection and degradation contracts (measured 90.2% / 85.6% when the
# gate was introduced, 89.2% for dnn when the out-of-core executor
# landed; raise these as coverage grows, never lower them).
COVER_FLOOR_core   = 88.0
COVER_FLOOR_faults = 83.0
COVER_FLOOR_dnn    = 87.0

.PHONY: build test test-e2e bench bench-smoke bench-json benchdiff check cover-gate race fmt lint fuzz-smoke profile-smoke trace-smoke examples-smoke

# benchdiff compares BENCH_report.json (from bench-json) against the
# committed baseline. `make check` and CI run it strict
# (UCUDNN_BENCHDIFF_STRICT=1): a ns/op regression past a benchmark's
# max_regress slack (or any allocs/op increase) fails the build. The
# bare `make benchdiff` stays informational for ad-hoc runs on
# unknown hosts; the per-benchmark slack in BENCH_kernels.json absorbs
# the jitter of the noisy single-core box the gate usually runs on
# (see the host note there).
BENCHDIFF_FLAGS = -informational
ifdef UCUDNN_BENCHDIFF_STRICT
BENCHDIFF_FLAGS =
endif

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# test-e2e runs the full differential + golden end-to-end suite: every
# zoo network forward+backward, undivided vs micro-batched vs
# micro-batched-with-faults, asserting bitwise-identical outputs and
# gradients (see internal/testkit).
test-e2e:
	$(GO) test -count=1 -timeout 1200s ./internal/testkit/
	$(GO) test -count=1 -timeout 1200s -run 'TestOOC' ./internal/testkit/

bench:
	$(GO) test -bench=. -benchmem -run=NONE

# bench-smoke is a short pass over the convolution kernel
# micro-benchmarks (the BENCH_kernels.json baseline): enough iterations
# to catch a kernel that stopped running or started allocating, fast
# enough for the pre-commit gate.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkConvKernels$$|BenchmarkConvBackwardFilter|BenchmarkSgemm' \
		-benchtime=3x -benchmem ./internal/conv/ ./internal/blas/

# bench-json runs the kernel micro-benchmarks that back
# BENCH_kernels.json and emits a schema'd report for benchdiff. The raw
# bench output goes through a file, not a pipe, so a test failure is
# not masked by the emitter's exit status.
bench-json:
	@tmp=$$(mktemp); \
	$(GO) test -run=NONE -bench='BenchmarkConvKernels$$|BenchmarkConvKernelsBatch|BenchmarkConvBackwardFilter|BenchmarkSgemm' \
		-benchtime=3x -benchmem ./internal/conv/ ./internal/blas/ > $$tmp || { cat $$tmp; rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/ucudnn-benchdiff -emit < $$tmp > BENCH_report.json; rm -f $$tmp
	@echo "wrote BENCH_report.json"

benchdiff: BENCH_report.json
	$(GO) run ./cmd/ucudnn-benchdiff $(BENCHDIFF_FLAGS) BENCH_kernels.json BENCH_report.json

BENCH_report.json:
	@$(MAKE) --no-print-directory bench-json

# profile-smoke exercises the cost-attribution pipeline end to end: a
# real-compute zoo run under -profile, then schema + invariant
# validation of the resulting PROF_report.json (kept as a CI artifact
# next to BENCH_report.json).
profile-smoke:
	$(GO) run ./cmd/ucudnn-time -net alexnet -batch 8 -iters 1 -mode wr -ws 64 -profile PROF_report.json
	$(GO) run ./cmd/ucudnn-profile -check PROF_report.json

# trace-smoke exercises the causal-timeline pipeline end to end: a
# blob-budgeted zoo run exporting the canonical timeline, then schema +
# invariant + coverage validation of the resulting TRACE_timeline.json
# (kept as a CI artifact next to PROF_report.json).
trace-smoke:
	$(GO) run ./cmd/ucudnn-trace -net alexnet -batch 16 -iters 1 -mode wd -total 256 -blob-budget 48 \
		-ws 64 -o TRACE_timeline.json -critical-path -stalls
	$(GO) run ./cmd/ucudnn-trace -check TRACE_timeline.json

# examples-smoke builds the four examples into a temp dir and runs each
# there (training writes training_metrics.txt and training_trace.json to
# its working directory); any non-zero exit fails the target.
examples-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./examples/... || exit 1; \
	for ex in quickstart pareto inception_wd training; do \
		echo "examples-smoke: $$ex"; \
		(cd "$$dir" && "./$$ex" >/dev/null) || { echo "examples-smoke: $$ex failed"; exit 1; }; \
	done

# lint runs the ucudnn-lint analyzer suite (detlint, hotpath, wsfloor,
# metricname, faultpoint, phasename — see DESIGN.md "Static analysis")
# over the whole module.
lint:
	$(GO) run ./cmd/ucudnn-lint ./...

# fuzz-smoke gives each committed fuzz target a short budget: long
# enough to replay the corpus and probe nearby inputs, short enough for
# the pre-commit gate.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDescriptors -fuzztime=5s ./internal/cudnn/
	$(GO) test -run=NONE -fuzz=FuzzILP -fuzztime=5s ./internal/ilp/
	$(GO) test -run=NONE -fuzz=FuzzOOCSchedule -fuzztime=5s ./internal/dnn/

# cover-gate fails when internal/core or internal/faults coverage drops
# below its ratcheted floor, so the degradation ladder and fault registry
# cannot silently lose their tests.
cover-gate:
	@for spec in core:$(COVER_FLOOR_core) faults:$(COVER_FLOOR_faults) dnn:$(COVER_FLOOR_dnn); do \
		pkg=$${spec%%:*}; min=$${spec##*:}; prof=$$(mktemp); \
		$(GO) test -count=1 -coverprofile=$$prof ./internal/$$pkg/ >/dev/null || { rm -f $$prof; exit 1; }; \
		got=$$($(GO) tool cover -func=$$prof | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		rm -f $$prof; \
		echo "coverage internal/$$pkg: $$got% (floor $$min%)"; \
		if [ "$$(awk -v g=$$got -v m=$$min 'BEGIN{print (g+0 >= m+0)}')" != 1 ]; then \
			echo "coverage gate: internal/$$pkg fell below $$min%"; exit 1; fi; \
	done

# race runs the concurrency-sensitive packages (metrics registry, core
# handle, trace recorder, fault registry, flight recorder, debug server,
# plus the striped kernel engine, its BLAS layer and the cluster
# all-reduce model) under the race detector; the e2e harness runs in
# -short mode (two networks) to keep the pass affordable.
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/trace/... \
		./internal/conv/... ./internal/blas/... ./internal/parallel/... ./internal/faults/... \
		./internal/flight/... ./internal/debugserver/... ./internal/prof/... ./internal/dnn/...
	$(GO) test -race -short -count=1 -timeout 1200s ./internal/testkit/

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# check is the pre-commit gate: tier-1 build+test plus vet, formatting,
# the analyzer suite, the coverage gate, the race pass, the kernel
# benchmark smoke run, the fuzz smoke run, and the examples smoke run.
check: build
	$(GO) vet ./...
	@$(MAKE) --no-print-directory fmt
	@$(MAKE) --no-print-directory lint
	$(GO) test ./...
	@$(MAKE) --no-print-directory cover-gate
	@$(MAKE) --no-print-directory race
	@$(MAKE) --no-print-directory bench-smoke
	@$(MAKE) --no-print-directory fuzz-smoke
	@$(MAKE) --no-print-directory profile-smoke
	@$(MAKE) --no-print-directory trace-smoke
	@$(MAKE) --no-print-directory examples-smoke
	@$(MAKE) --no-print-directory bench-json
	@$(MAKE) --no-print-directory benchdiff UCUDNN_BENCHDIFF_STRICT=1
