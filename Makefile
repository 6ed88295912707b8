# Standard entry points for the singlingout reproduction.
#
#   make ci        gofmt + lint (repolint invariants + go vet) + build +
#                  tests (race on the concurrency-sensitive packages,
#                  including internal/obs/serve) + the bench/ module's
#                  vet and tests + a quick instrumented repro run + the
#                  work-counter regression gate + the loadgen smoke
#   make bench-test  go vet and the tests of the benchmark (bench/
#                  module)
#   make fuzz-smoke  five seconds of coverage-guided fuzzing per fuzz
#                  target (plain `go test` runs only their seed corpora)
#   make lint      repolint (internal/analysis invariant suite, including
#                  the dataflow analyzers) + go vet, plus an advisory
#                  govulncheck pass when the tool exists
#   make bench     quick instrumented repro run producing BENCH_<rev>.json
#   make benchgate the quick run's rows, errors and work counters must
#                  equal the committed BENCH_baseline.json's (seconds are
#                  printed, never gated)
#   make loadgen-smoke  sharded in-process qserver under injected
#                  overload; fails when an analyst errors or the ledger
#                  does not replay
#   make gobench   the root go test -bench suite with work counters, then
#                  the internal/pso microbenchmarks (prefix-descent trial,
#                  IsolationCount, HashPrefix.Eval) and the query server's
#                  handler on cached and fresh batches (BenchmarkServeQuery)
#   make repro     full-size experiment tables (what EXPERIMENTS.md archives)

GO ?= go
rev := $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

.PHONY: ci fmt lint vet build test bench-test fuzz-smoke race repro-quick bench benchgate loadgen-smoke gobench repro clean

ci: fmt lint build race test fuzz-smoke bench-test benchgate loadgen-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Repo invariants (determinism, errors.Is on sentinels, ctx propagation,
# obs naming, bounded goroutines — see docs/INVARIANTS.md) plus go vet.
# Exits non-zero on any unsuppressed finding. govulncheck is advisory:
# it runs when installed but never fails the build (the container this
# runs in is offline and does not ship the tool).
lint:
	$(GO) run ./cmd/repolint ./...
	$(GO) vet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck: advisory findings above (not gating)"; \
	else \
		echo "govulncheck not installed; skipping advisory vulnerability scan"; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# ./internal/obs/... covers internal/obs/serve, whose SSE/scrape handlers
# run concurrently with the instrumented experiments; ./internal/query/...
# covers query/remote (the HTTP query service + client) and ./cmd/qserver
# the served binary's concurrent request handling. ./internal/diffix/...
# and ./internal/recon/... are included because both fan attack workloads
# out through internal/par worker pools (diffix averages noisy-query
# replicates in parallel, recon runs its solver fan-out there), so their
# tests exercise the pool's sharing discipline under real load.
# ./cmd/loadgen/... holds the only test (TestOverloadInjectionSheds) that
# drives the sharded server's admission control and load shedding with
# concurrent HTTP clients. ./cmd/reconstruct/...'s remote cases run an
# in-process query server and the attacking client concurrently.
race:
	$(GO) test -race ./internal/par/... ./internal/pso/... ./internal/obs/... ./internal/query/... ./internal/census/... ./internal/diffix/... ./internal/recon/... ./cmd/qserver/... ./cmd/loadgen/... ./cmd/reconstruct/...

test:
	$(GO) test ./...

# The benchmark (bench/) is its own module, so `go vet ./...` and
# `go test ./...` at the root do not reach it.
bench-test:
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test ./...

# Every fuzz target for five seconds past its seed corpus: the parsers of
# untrusted bytes (wire requests, WAL, CSV), the ledger replay, and the
# two solvers against their oracles (SAT against brute force, the revised
# simplex against the dense tableau). The short minimize time keeps the
# engine from spending the whole budget shrinking one large new input
# (FuzzDecodeQueryRequest's 20 KB nesting seed). A failing input is
# written under the package's testdata/fuzz/ and fails the target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRevised$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzSolver$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/sat
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzWAL$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/query/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeQueryRequest$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/query/remote
	$(GO) test -run '^$$' -fuzz '^FuzzReplayLedger$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/query/remote

# Quick instrumented end-to-end run: every experiment, JSONL journal and
# BENCH_<rev>.json summary under /tmp.
repro-quick:
	$(GO) run ./cmd/repro -quick -metrics /tmp/singlingout-run.jsonl

# Produce a bench summary for the current revision in the repo root.
# Refresh the committed gate baseline with:
#   make bench && cp BENCH_$(rev).json BENCH_baseline.json
bench:
	$(GO) run ./cmd/repro -quick -metrics /tmp/singlingout-bench.jsonl
	cp /tmp/BENCH_$(rev).json BENCH_$(rev).json
	@echo "wrote BENCH_$(rev).json"

# Gate: the quick run at seed 1 must produce exactly the baseline's rows,
# each with the baseline's error text and exactly its work counters (LP
# pivots, SAT propagations, oracle queries, PSO weight draws, ...). At one
# seed those counters do not depend on timing or worker count
# (docs/INVARIANTS.md), so a difference is a change in the work the code
# does. Seconds are printed but never gated: bench/ measures speed against
# the parent commit. A change that moves a counter on purpose re-baselines
# in the same commit, with the reason in CHANGES.md.
benchgate: repro-quick
	@$(GO) run ./cmd/benchdiff BENCH_baseline.json /tmp/BENCH_$(rev).json || { \
		echo "benchgate: if the change is meant to move these counters, re-baseline with"; \
		echo "  make bench && cp BENCH_$(rev).json BENCH_baseline.json"; \
		echo "and give the reason in CHANGES.md"; exit 1; }

# Load-generator smoke: a small multi-analyst Zipf workload against an
# in-process sharded qserver under injected overload. loadgen exits 1 when
# an analyst fails with anything but a budget refusal or shedding, or when
# the server's ledger does not replay to its totals. How many requests are
# shed depends on timing, so nothing here compares counters with a file
# (cmd/loadgen's TestOverloadInjectionSheds checks that some are shed).
loadgen-smoke:
	$(GO) run ./cmd/loadgen -analysts 4 -requests 16 -budget 100 \
		-shards 2 -max-concurrent 1 -queue-depth -1 -inject-delay 5ms -concurrency 4

gobench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run '^$$' -bench . -benchmem ./internal/pso
	$(GO) test -run '^$$' -bench BenchmarkServeQuery -benchmem ./internal/query/remote

repro:
	$(GO) run ./cmd/repro

clean:
	rm -f /tmp/singlingout-run.jsonl /tmp/singlingout-bench.jsonl /tmp/BENCH_*.json
