# Standard entry points for the singlingout reproduction.
#
#   make ci        gofmt + lint (repolint invariants + go vet) + build +
#                  tests (race on the concurrency-sensitive packages,
#                  including internal/obs/serve; the tests include the
#                  work-counter regression gate) + the bench/ module's
#                  vet and tests + the loadgen smoke
#   make bench-test  go vet and the tests of the benchmark (bench/
#                  module)
#   make fuzz-smoke  five seconds of coverage-guided fuzzing per fuzz
#                  target (plain `go test` runs only their seed corpora)
#   make lint      repolint (internal/analysis invariant suite, including
#                  the dataflow analyzers) + go vet, plus an advisory
#                  govulncheck pass when the tool exists
#   make repro-quick  every quick experiment with its JSONL journal
#   make loadgen-smoke  in-process qserver under injected overload;
#                  fails when an analyst errors or the ledger does not
#                  replay
#   make gobench   the internal/pso microbenchmarks (prefix-descent trial,
#                  IsolationCount, HashPrefix.Eval), LP decodes of new
#                  answer vectors at the lp-recon shape
#                  (BenchmarkDecodeLPRecon, with pivots/op and
#                  ns/pivot), and streaming sessions there in 8 pushes
#                  of 24 and at E02.stream's quick n = 64 in 16 pushes
#                  of 16, every push cold (BenchmarkStreamPush, with
#                  pivots/push and ns/pivot),
#                  the random-subset generator at the serving
#                  and lp-recon shapes (BenchmarkRandomSubsets), the
#                  query server's handler on cached and fresh batches
#                  (BenchmarkServeQuery) and census reconstruction at
#                  the census-sat shape (BenchmarkReconstructCensusSat,
#                  with props/op)
#   make repro     full-size experiment tables (what EXPERIMENTS.md archives)

GO ?= go

.PHONY: ci fmt lint vet build test bench-test fuzz-smoke race repro-quick loadgen-smoke gobench repro clean

ci: fmt lint build race test fuzz-smoke bench-test loadgen-smoke

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
# drives the server's admission gate and load shedding with concurrent
# HTTP clients. ./cmd/reconstruct/...'s remote cases run an
# in-process query server and the attacking client concurrently.
race:
	$(GO) test -race ./internal/par/... ./internal/pso/... ./internal/obs/... ./internal/query/... ./internal/census/... ./internal/diffix/... ./internal/recon/... ./cmd/qserver/... ./cmd/loadgen/... ./cmd/reconstruct/...

# Includes the work-counter regression gate, TestAllRunnersProduceTables
# (internal/experiments): every quick run at seed 1 must record exactly
# the counters of internal/experiments/testdata/quick_counters.json
# (docs/INVARIANTS.md). A change that moves one on purpose replaces the
# file with the JSON the failing test prints, with the reason in
# CHANGES.md.
test:
	$(GO) test ./...

# The benchmark (bench/) is its own module, so `go vet ./...` and
# `go test ./...` at the root do not reach it.
bench-test:
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test ./...

# Every fuzz target for five seconds past its seed corpus: the parsers of
# untrusted bytes (wire requests, WAL, CSV), the ledger replay, the
# query server's ledger under injected WAL faults against a reference
# model, and the two solvers against their oracles (SAT against brute
# force, the revised simplex against the dense tableau). The short minimize time keeps the
# engine from spending the whole budget shrinking one large new input.
# A failing input is written under the package's testdata/fuzz/ and
# fails the target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRevised$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzSolver$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/sat
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzWAL$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/query/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeQueryRequest$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/query/remote
	$(GO) test -run '^$$' -fuzz '^FuzzReplayLedger$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/query/remote
	$(GO) test -run '^$$' -fuzz '^FuzzLedgerModel$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/query/remote

# Quick instrumented end-to-end run: every experiment, with its JSONL
# journal under /tmp.
repro-quick:
	$(GO) run ./cmd/repro -quick -metrics /tmp/singlingout-run.jsonl

# Load-generator smoke: a small multi-analyst Zipf workload against an
# in-process qserver (two cache shards, one active slot, no waiting
# room) under injected overload. loadgen exits 1 when an analyst fails
# with anything but a budget refusal or shedding, or when the server's
# ledger does not replay to its totals. How many requests are shed
# depends on timing, so nothing here compares counters with a file
# (cmd/loadgen's TestOverloadInjectionSheds checks that some are shed).
loadgen-smoke:
	$(GO) run ./cmd/loadgen -analysts 4 -requests 16 -budget 100 \
		-shards 2 -max-concurrent 1 -queue-depth -1 -inject-delay 5ms -concurrency 4

gobench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/pso
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeLPRecon|BenchmarkStreamPush' -benchmem ./internal/lp
	$(GO) test -run '^$$' -bench BenchmarkRandomSubsets -benchmem ./internal/query
	$(GO) test -run '^$$' -bench BenchmarkServeQuery -benchmem ./internal/query/remote
	$(GO) test -run '^$$' -bench BenchmarkReconstructCensusSat -benchtime 16x -benchmem ./internal/census

repro:
	$(GO) run ./cmd/repro

clean:
	rm -f /tmp/singlingout-run.jsonl
