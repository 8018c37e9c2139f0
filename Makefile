GO ?= go

.PHONY: all build vet test race bench bench-fault bench-recovery bench-solver bench-solver-check bench-degraded bench-lint bench-serve figures fmt lint lint-vet ci-lint check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Regenerate BENCH_fault.json (fault-tolerant scatter makespans under
# no faults / one transient drop / one permanent crash).
bench-fault:
	$(GO) test -run '^$$' -bench BenchmarkFaultScatter -benchtime 1x .

# Regenerate BENCH_recovery.json (failover recovery overhead of the
# chaos pipeline vs its fault-free baseline on the Table 1 grid).
bench-recovery:
	$(GO) run ./cmd/scatterbench -recovery BENCH_recovery.json

# Regenerate BENCH_solver.json (incremental solver engine vs the
# from-scratch DP at the paper's full 817,101-item scale: cold solves,
# the worker-pool scaling curve, coarsen-then-refine with its error
# band, warm crash re-solves, plan-cache hits). Takes a few seconds.
bench-solver:
	$(GO) run ./cmd/scatterbench -solver BENCH_solver.json

# CI gate: the same measurement matrix (scaling curve, coarse band
# checks against the exact optimum, bit-identity checks, engine stats)
# at the paper's full 817,101 items. It fails on a lost invariant,
# never on wall clock, and writes to /tmp: only the committed
# BENCH_solver.json carries published numbers.
bench-solver-check:
	$(GO) run ./cmd/scatterbench -solver /tmp/BENCH_solver_check.json

# Regenerate BENCH_degraded.json (degraded-network recovery on routed
# ring platforms: exact-DP re-solves vs the diffusion fallback under a
# site partition plus degraded trunk links, at three graph sizes).
bench-degraded:
	$(GO) run ./cmd/scatterbench -degraded BENCH_degraded.json

# Regenerate BENCH_serve.json (scatterd under a seeded 120k-request
# load: throughput, latency percentiles, store/cache hit rates, shed
# rate, and cold-vs-warm crash-restart economics).
bench-serve:
	$(GO) run ./cmd/scatterbench -serve BENCH_serve.json

# Regenerate BENCH_lint.json (scatterlint runtime over this module:
# loader, the five syntactic analyzers, the three dataflow analyzers,
# the three SSA analyzers, the generated synthetic fixture, and the
# incremental cache cold vs. warm after a one-package edit).
bench-lint:
	$(GO) test -run '^$$' -bench BenchmarkLint -benchtime 1x .

# Regenerate figures/fault.svg alongside the demo's console report.
figures:
	$(GO) run ./examples/faultdemo

# Fail if any file needs gofmt. Fixture packages under
# internal/lint/testdata/*/ are exempt — they pin layouts (trailing
# directives, want comments) on purpose. The generator files directly
# under testdata are gated by `make lint` instead.
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/lint/testdata/[^/]*/' || true); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

bin/scatterlint: $(wildcard cmd/scatterlint/*.go internal/lint/*.go)
	$(GO) build -o $@ ./cmd/scatterlint

# Run the domain-invariant analyzers (internal/lint) over the whole
# module, test files included, through the incremental content-hashed
# cache under bin/lintcache: a warm run after touching one package
# re-analyzes only that package and its reverse dependencies.
# Suppress a finding with
#   //scatterlint:ignore <analyzer> <reason>
lint: bin/scatterlint
	./bin/scatterlint ./...
	@out=$$(gofmt -l internal/lint/testdata/*.go); \
	if [ -n "$$out" ]; then \
		echo "fixture generators need gofmt:"; echo "$$out"; exit 1; \
	fi

# The same suite through the standard vet driver (the unitchecker
# protocol go vet speaks); slower, kept for parity debugging.
lint-vet: bin/scatterlint
	$(GO) vet -vettool=$(CURDIR)/bin/scatterlint ./...

# Cache-coherence gate: run scatterlint twice from an empty cache —
# cold, then fully warm — and fail if the findings differ by a byte.
ci-lint: bin/scatterlint
	rm -rf bin/lintcache
	./bin/scatterlint -json ./... > bin/lint-cold.json
	./bin/scatterlint -json ./... > bin/lint-warm.json
	cmp bin/lint-cold.json bin/lint-warm.json

# Umbrella gate: everything CI enforces, in one target.
check: build vet lint race

ci: fmt check ci-lint
