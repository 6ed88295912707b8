// Command loadgen drives a statistical-query workload against a qserver:
// N simulated analysts issue batched counting queries whose popularity
// follows a Zipf distribution over a shared query pool, with a tunable
// probability of adversarially repeating the previous batch verbatim (a
// cache-probing pattern — repeats are free under the server's answer
// cache, so a repeat-heavy analyst probes without spending budget).
//
// Usage:
//
//	loadgen [-url http://host:port] [-analysts 4] [-requests 16] [-batch 8]
//	        [-pool 64] [-zipf 1.3] [-repeat 0.25] [-backend exact]
//	        [-concurrency 1] [-seed 42] [-n 96] [-p 0.5] [-budget 0]
//	        [-shards 1] [-queue-depth 64] [-max-concurrent 16]
//	        [-inject-delay 0] [-metrics journal.jsonl]
//
// Without -url, loadgen starts an in-process qserver on a loopback
// listener (sized by -n/-p/-budget at -seed, its answer cache
// partitioned by -shards, its one admission gate sized by
// -max-concurrent and -queue-depth) and drives that, so a single command
// smoke-tests the whole service stack.
// -inject-delay registers that server's backends wrapped in an oracle
// that waits the delay before answering, so every request with fresh
// (uncached) queries holds its admission slot that much longer; a request
// the cache answers whole is not delayed. With a small -max-concurrent
// and -queue-depth -1 (no waiting room) this produces overload: shed
// requests surface in the qserver.shed counter and — when a batch
// outlasts the client's retries — the workload table's shed column. How
// many are shed depends on timing, so that counter differs from run to
// run.
//
// The workload is precomputed deterministically from -seed (per-analyst
// RNGs derive from (seed, analyst index)), and stdout carries only
// deterministic results: the workload table and the server's privacy-loss
// ledger summary (fetched from /v1/ledger after the run, cross-checked
// with remote.ReplayLedger). At -concurrency 1 two runs with the same
// flags produce byte-identical stdout. Wall-clock results — throughput
// and exact-sample latency quantiles — go to stderr, and with -metrics
// also to a JSONL journal (experiment events BENCH.qserver.load, carrying
// the run's metric delta, and BENCH.qserver.p50 / BENCH.qserver.p99).
// The exit status is 1 when an analyst fails with anything but a budget
// refusal or shedding, or when the server's ledger does not replay to its
// totals.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// request is one precomputed batch of one analyst's workload.
type request struct {
	queries [][]int
	repeat  bool // verbatim repeat of the previous batch (cache probe)
}

// analystRun is the outcome of one analyst's request sequence.
type analystRun struct {
	name      string
	requests  int
	queries   int
	repeats   int
	denied    int // batches refused with budget_exhausted
	shed      int // batches still overloaded after the client's retries
	latencies []time.Duration
	err       error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "base URL of a running qserver (empty: start one in-process)")
	analysts := fs.Int("analysts", 4, "simulated analysts")
	requests := fs.Int("requests", 16, "requests per analyst")
	batch := fs.Int("batch", 8, "queries per request")
	pool := fs.Int("pool", 64, "distinct queries in the shared pool")
	zipfS := fs.Float64("zipf", 1.3, "Zipf exponent of query popularity (> 1)")
	repeat := fs.Float64("repeat", 0.25, "probability a request repeats the previous batch verbatim")
	backend := fs.String("backend", "exact", "server backend to query: exact, laplace, diffix")
	concurrency := fs.Int("concurrency", 1, "analysts running at once (1 = sequential, deterministic stdout)")
	seed := fs.Int64("seed", 42, "workload seed (and dataset seed for the in-process server)")
	n := fs.Int("n", 96, "in-process server: dataset size")
	p := fs.Float64("p", 0.5, "in-process server: Bernoulli parameter")
	budget := fs.Int("budget", 0, "in-process server: per-analyst fresh-query budget (0 = unlimited)")
	shards := fs.Int("shards", 1, "in-process server: answer-cache partitions")
	queueDepth := fs.Int("queue-depth", 64, "in-process server: requests waiting for a slot (-1 = no waiting room)")
	maxConcurrent := fs.Int("max-concurrent", 16, "in-process server: requests served at once")
	injectDelay := fs.Duration("inject-delay", 0, "in-process server: artificial backend service time, paid by requests with fresh queries (overload testing)")
	metricsPath := fs.String("metrics", "", "write a JSONL journal here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *analysts < 1 || *requests < 1 || *batch < 1 || *pool < 2 || *zipfS <= 1 {
		fmt.Fprintln(stderr, "loadgen: need -analysts/-requests/-batch >= 1, -pool >= 2, -zipf > 1")
		return 2
	}
	if *concurrency < 1 || *concurrency > *analysts {
		*concurrency = *analysts
	}

	obs.Default().SetEnabled(true)
	var journal *obs.Journal
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 1
		}
		defer f.Close()
		journal = obs.NewJournal(f)
	}

	ctx := context.Background()
	base := *url
	if base == "" {
		cfg := remote.ServerConfig{
			N: *n, Seed: *seed, P: *p, Budget: *budget,
			Shards: *shards, QueueDepth: *queueDepth,
			MaxConcurrent: *maxConcurrent,
		}
		if *injectDelay > 0 {
			for _, b := range remote.Builtins() {
				cfg.Backends = append(cfg.Backends, slowBackend{Backend: b, delay: *injectDelay})
			}
		}
		srv, err := remote.NewServer(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 1
		}
		hs := &http.Server{Handler: srv.Handler()}
		// The accept loop ends when Close below shuts the server.
		go hs.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "loadgen: in-process qserver at %s (n=%d seed=%d budget=%d)\n", base, *n, *seed, *budget)
	}

	// Precompute every analyst's request sequence deterministically:
	// a shared query pool from (seed, 0), per-analyst draw RNGs from
	// (seed, analyst+1). Ranks are Zipf-distributed, so low-rank pool
	// entries are hot across analysts and the server's answer cache sees
	// a realistic skewed hit pattern.
	dialProbe, err := remote.Dial(ctx, base, remote.Options{Backend: *backend})
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	poolQueries := query.RandomSubsets(par.RNG(*seed, 0), dialProbe.N(), *pool)
	work := make([][]request, *analysts)
	runs := make([]analystRun, *analysts)
	for a := range work {
		rng := par.RNG(*seed, a+1)
		zipf := rand.NewZipf(rng, *zipfS, 1, uint64(*pool-1))
		seq := make([]request, *requests)
		for r := range seq {
			if r > 0 && rng.Float64() < *repeat {
				seq[r] = request{queries: seq[r-1].queries, repeat: true}
				continue
			}
			qs := make([][]int, *batch)
			for q := range qs {
				qs[q] = poolQueries[zipf.Uint64()]
			}
			seq[r] = request{queries: qs}
		}
		work[a] = seq
		runs[a] = analystRun{name: fmt.Sprintf("analyst%02d", a)}
	}

	if journal != nil {
		_ = journal.Emit(obs.Event{
			Phase: "run_start",
			Seed:  *seed,
			Sizes: map[string]int{
				"analysts": *analysts, "requests": *requests, "batch": *batch,
				"pool": *pool, "concurrency": *concurrency,
			},
		})
	}
	before := obs.Default().Snapshot()
	start := time.Now()

	// Drive the analysts, -concurrency at a time. Each analyst issues its
	// requests strictly in order (a later batch may depend on the cache
	// state its earlier ones created); refused batches are counted, not
	// fatal — an exhausted budget is the defense working.
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	for a := range work {
		wg.Add(1)
		sem <- struct{}{}
		// The -concurrency semaphore bounds the fan-out; wg joins it below.
		go func(a int) {
			defer wg.Done()
			defer func() { <-sem }()
			ar := &runs[a]
			o, err := remote.Dial(ctx, base, remote.Options{
				Backend: *backend, Analyst: ar.name, Journal: journal,
			})
			if err != nil {
				ar.err = err
				return
			}
			for _, req := range work[a] {
				t0 := time.Now()
				_, err := o.Answer(ctx, req.queries)
				ar.latencies = append(ar.latencies, time.Since(t0))
				ar.requests++
				ar.queries += len(req.queries)
				if req.repeat {
					ar.repeats++
				}
				if err != nil {
					if errors.Is(err, query.ErrBudgetExhausted) {
						ar.denied++
						continue
					}
					if errors.Is(err, query.ErrOverloaded) {
						// The server shed this batch past the client's retry
						// budget — under injected overload that is the system
						// working, not a failure.
						ar.shed++
						continue
					}
					ar.err = err
					return
				}
			}
		}(a)
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := false
	totalRequests, totalQueries := 0, 0
	var latencies []time.Duration
	for i := range runs {
		if runs[i].err != nil {
			fmt.Fprintf(stderr, "loadgen: %s: %v\n", runs[i].name, runs[i].err)
			failed = true
		}
		totalRequests += runs[i].requests
		totalQueries += runs[i].queries
		latencies = append(latencies, runs[i].latencies...)
	}

	// Wall-clock results to stderr and the journal: throughput plus
	// exact-sample latency quantiles (sorted samples, not histogram
	// estimates — loadgen holds every observation).
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := sampleQuantile(latencies, 0.50)
	p99 := sampleQuantile(latencies, 0.99)
	qps := float64(totalQueries) / elapsed.Seconds()
	// Server-side shed count over the run (meaningful for the in-process
	// server, which records into the same default registry).
	delta := obs.Default().Snapshot().Delta(before)
	shedTotal := int(delta.Counters[remote.MetricShed])
	fmt.Fprintf(stderr, "loadgen: %d requests (%d queries) in %.3fs — %.0f queries/s; latency p50=%s p99=%s; shed attempts=%d (%.2f per request)\n",
		totalRequests, totalQueries, elapsed.Seconds(), qps, p50, p99,
		shedTotal, float64(shedTotal)/float64(totalRequests))
	if journal != nil {
		load := obs.Event{
			Phase:   "experiment",
			ID:      "BENCH.qserver.load",
			Seed:    *seed,
			Seconds: elapsed.Seconds(),
			Sizes:   map[string]int{"requests": totalRequests, "queries": totalQueries, "shards": *shards},
		}
		if !delta.Empty() {
			load.Metrics = &delta
		}
		_ = journal.Emit(load)
		_ = journal.Emit(obs.Event{Phase: "experiment", ID: "BENCH.qserver.p50", Seed: *seed, Seconds: p50.Seconds()})
		_ = journal.Emit(obs.Event{Phase: "experiment", ID: "BENCH.qserver.p99", Seed: *seed, Seconds: p99.Seconds()})
		_ = journal.Emit(obs.Event{Phase: "run_end", Seed: *seed, Seconds: elapsed.Seconds()})
	}

	// Deterministic results to stdout: the workload table and the
	// server's ledger view of it.
	fmt.Fprintf(stdout, "loadgen workload: analysts=%d requests=%d batch=%d pool=%d zipf=%g repeat=%g backend=%s seed=%d\n",
		*analysts, *requests, *batch, *pool, *zipfS, *repeat, *backend, *seed)
	fmt.Fprintf(stdout, "%-10s %9s %9s %9s %9s %9s\n", "analyst", "requests", "queries", "repeats", "denied", "shed")
	for i := range runs {
		fmt.Fprintf(stdout, "%-10s %9d %9d %9d %9d %9d\n",
			runs[i].name, runs[i].requests, runs[i].queries, runs[i].repeats, runs[i].denied, runs[i].shed)
	}
	if err := printLedger(ctx, stdout, dialProbe, runs); err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// slowBackend is a backend whose oracle waits delay before answering.
// The server calls a backend while it holds the request's admission
// slot, so the delay makes concurrent requests contend for slots.
type slowBackend struct {
	remote.Backend
	delay time.Duration
}

func (b slowBackend) Open(cfg remote.ServerConfig, x []int64) (query.Oracle, error) {
	o, err := b.Backend.Open(cfg, x)
	if err != nil {
		return nil, err
	}
	return slowOracle{Oracle: o, delay: b.delay}, nil
}

// slowOracle answers through its inner oracle after waiting delay, or
// fails with the context's error if the context ends first.
type slowOracle struct {
	query.Oracle
	delay time.Duration
}

func (o slowOracle) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	t := time.NewTimer(o.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return o.Oracle.Answer(ctx, queries)
}

// printLedger fetches the server's privacy-loss ledger, verifies it
// replays to the served totals, and prints the per-analyst accounting.
func printLedger(ctx context.Context, w io.Writer, o *remote.Oracle, runs []analystRun) error {
	lr, err := o.FetchLedger(ctx, "")
	if err != nil {
		return err
	}
	totals, err := remote.ReplayLedger(lr.Entries)
	if err != nil {
		return fmt.Errorf("ledger replay: %w", err)
	}
	for analyst, want := range lr.Totals {
		if totals[analyst] != want {
			return fmt.Errorf("ledger replay: total[%s] = %d, server says %d", analyst, totals[analyst], want)
		}
	}
	type acct struct{ spent, refunded, denied, entries int }
	byAnalyst := map[string]*acct{}
	for _, e := range lr.Entries {
		a := byAnalyst[e.Analyst]
		if a == nil {
			a = &acct{}
			byAnalyst[e.Analyst] = a
		}
		a.entries++
		switch e.Op {
		case remote.LedgerSpend:
			a.spent += e.Cost
		case remote.LedgerRefund:
			a.refunded += e.Cost
		case remote.LedgerDeny:
			a.denied += e.Cost
		}
	}
	fmt.Fprintf(w, "ledger (budget=%d, %d entries, replay ok):\n", lr.Budget, len(lr.Entries))
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s\n", "analyst", "spent", "refunded", "denied", "net")
	for i := range runs {
		name := runs[i].name
		a := byAnalyst[name]
		if a == nil {
			a = &acct{}
		}
		fmt.Fprintf(w, "%-10s %9d %9d %9d %9d\n", name, a.spent, a.refunded, a.denied, totals[name])
	}
	return nil
}

// sampleQuantile returns the q-quantile of sorted samples (nearest-rank).
func sampleQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
