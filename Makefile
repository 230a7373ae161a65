GO ?= go

.PHONY: tier1 build test race soak-transport soak vet lint bench-erasure bench-smoke all

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
# chunks go back to the same arena (DESIGN.md §3c). The checkpoint
# coders ride along too:
# their ring forwards received frames through the transport uncopied,
# so a frame's lifetime spans two endpoints (DESIGN.md §3k).
soak-transport:
	for p in 1 2 8; do GOMAXPROCS=$$p $(GO) test -race -count=20 ./internal/transport ./internal/msglog ./internal/ckpt || exit 1; done

# Soak the recovery protocols: their flakes show only under
# repetition, so build the root test binary once and run the local,
# replica, resize, mid-collective, relay-parity rebuild and pooling
# tests SOAK_COUNT times each (a hang shows as the job timeout; the
# pooling tests check arena ownership under recovery). Run a second
# test process beside it to add load.
SOAK_COUNT ?= 20
SOAK_BIN ?= ./fmi.soak.test
soak:
	$(GO) test -c -o $(SOAK_BIN) . && $(SOAK_BIN) -test.run 'Local|Replica|Resize|MidCollective|RelayParity|Pooling' -test.count=$(SOAK_COUNT)

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

# One pass over every benchmark as a smoke test (CI runs this; real
# measurements want more iterations and an idle machine).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
