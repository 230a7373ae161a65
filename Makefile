GO ?= go

.PHONY: tier1 build test race soak-transport vet lint bench-erasure bench-smoke bench-hotpath bench-serve bench-recovery bench-reconfig all

all: tier1 vet lint

# The acceptance gate: everything builds and every test passes.
tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the packages with real concurrency.
race:
	$(GO) test -race ./internal/ckpt/ ./internal/erasure/ ./internal/core/ ./internal/runtime/ ./internal/cluster/ ./internal/experiments/ ./internal/transport/ ./internal/msglog/ ./internal/coll/ ./internal/enc/ ./internal/trace/ ./internal/overlay/ ./internal/bufpool/ ./internal/serve/ ./internal/replica/ ./internal/view/ ./internal/lint/cfg/ .

# Soak the transport: every message rides one link and one matcher
# ingress, whose wake-up invariants (DESIGN.md §3k) are ordering
# properties, so the race detector runs the package's tests 20 times
# each at three scheduler widths. The message log rides along: its
# replay pin against the asynchronous trim (DESIGN.md §3c) is the same
# kind of interleaving property.
soak-transport:
	for p in 1 2 8; do GOMAXPROCS=$$p $(GO) test -race -count=20 ./internal/transport ./internal/msglog || exit 1; done

vet:
	$(GO) vet ./...

# Domain-specific static analysis: the fault-tolerance invariants the
# compiler cannot see (see DESIGN.md §3e and §3j). Stdlib-only; exits
# 1 on any unsuppressed finding. The wall-clock line keeps the CFG
# dataflow engine honest about staying in interactive territory.
lint:
	@start=$$(date +%s%N 2>/dev/null || date +%s000000000); \
	$(GO) run ./cmd/fmilint . ; rc=$$?; \
	end=$$(date +%s%N 2>/dev/null || date +%s000000000); \
	echo "fmilint: $$(( (end - start) / 1000000 )) ms"; \
	exit $$rc

bench-erasure:
	$(GO) test -bench Erasure -benchtime 1x ./internal/erasure/ ./internal/ckpt/

# Hot-path allocation benchmark: allocs/op, B/op, ns/op for the pooled
# transport/pack/checkpoint paths vs pooling off, written to
# BENCH_hotpath.json (the checked-in copy documents the win).
bench-hotpath:
	$(GO) run ./cmd/fmibench -out BENCH_hotpath.json hotpath

# Multi-tenant job-service benchmark: per-tenant p50/p99 submit-to-
# complete latency with Poisson kills aimed at the noisy tenants vs a
# failure-free baseline, written to BENCH_serve.json (the checked-in
# copy documents the cross-tenant isolation).
bench-serve:
	$(GO) run ./cmd/fmibench -out BENCH_serve.json serve

# Recovery-frontier benchmark: global rollback vs local replay vs
# primary/shadow replication on one allreduce workload, failure-free
# and with one primary-node kill, written to BENCH_recovery.json (the
# checked-in copy documents replica's no-rollback promotion latency).
bench-recovery:
	$(GO) run ./cmd/fmibench -out BENCH_recovery.json recovery-frontier

# Online-reconfiguration benchmark: grow and shrink an elastic job
# through the quiescent resize fence under all three recovery
# protocols, against the restart floor (a fresh single-iteration job at
# the target size), written to BENCH_reconfig.json (the checked-in copy
# documents resize committing well below even a bare relaunch).
bench-reconfig:
	$(GO) run ./cmd/fmibench -out BENCH_reconfig.json reconfig

# One pass over every benchmark as a smoke test (CI runs this; real
# measurements want more iterations and an idle machine).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
