// Command repro regenerates every experiment table in DESIGN.md's
// per-experiment index (E01–E19 and the ablations A01–A06). Its full-size
// output is what EXPERIMENTS.md archives.
//
// With -metrics it additionally records a structured JSONL run journal —
// one event per experiment with timing and the obs metric delta (oracle
// queries, simplex pivots, SAT conflicts, ...) — and writes a
// machine-readable BENCH_<rev>.json summary next to the journal.
//
// With -serve the same observability is live: an HTTP endpoint exposes
// Prometheus /metrics, the JSON /snapshot, /healthz (current experiment
// phase + uptime), an SSE /journal tail and the stdlib /debug/pprof/
// handlers while the run executes. With -spans the worker pool's per-item
// spans are exported as a Chrome trace-event JSON timeline (one lane per
// pool worker; load it at ui.perfetto.dev).
//
// Usage:
//
//	repro [-seed 1] [-quick] [-id E02] [-workers N] [-metrics out.jsonl]
//	      [-serve :8088] [-spans out.trace.json]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -id runs one experiment; an unknown id lists the valid ids with their
// descriptions on stderr and exits 1 before any experiment runs.
//
// -workers sizes the worker pool the parallel harnesses (E01, E02, E11,
// E13, E19) fan out on (0 = GOMAXPROCS). Per-item randomness derives from
// (seed, item index), so tables are byte-identical at every worker count.
// With -metrics, a sequential-vs-parallel census probe, a remote
// query-throughput probe (loopback qserver, batch=1 vs batch=256) and an
// LP-decoder probe (a fresh decoder per solve vs one reused decoder) are
// also timed and land as BENCH.census / BENCH.remote / BENCH.lp rows in
// the BENCH_<rev>.json summary.
//
// Failing experiments no longer abort the run: every experiment is
// attempted, failures are reported together at the end, and the exit
// status is nonzero if any failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"singlingout/internal/census"
	"singlingout/internal/experiments"
	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// benchCensusProbe times the same census SAT reconstruction sequentially
// and on a GOMAXPROCS-sized pool, emitting one "experiment"-phase event
// per configuration so the sequential-vs-parallel comparison lands as
// BENCH.census rows in BENCH_<rev>.json. The reconstructions themselves
// are deterministic, so both rows describe identical work.
func benchCensusProbe(emit func(obs.Event), seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 300, ZIPs: 3, BlocksPerZIP: 12})
	if err != nil {
		return err
	}
	cfg := census.DefaultConfig()
	tables := census.Tabulate(pop, cfg)
	// Always give the parallel row a pool of at least 2 so the two BENCH
	// rows are distinct even on a single-CPU host (where the speedup is
	// expected to be ~1x).
	parWorkers := runtime.GOMAXPROCS(0)
	if parWorkers < 2 {
		parWorkers = 2
	}
	for _, workers := range []int{1, parWorkers} {
		start := time.Now()
		if _, err := census.ReconstructAll(tables, cfg, 300000, workers); err != nil {
			return err
		}
		emit(obs.Event{
			Phase:   "experiment",
			ID:      fmt.Sprintf("BENCH.census.workers=%d", workers),
			Seed:    seed,
			Seconds: time.Since(start).Seconds(),
			Sizes:   map[string]int{"blocks": len(tables), "workers": workers},
		})
	}
	return nil
}

// benchRemoteProbe times raw statistical-query throughput over the wire:
// an in-process qserver (loopback HTTP, exact backend) answers the same
// workload once a query at a time and once in large batches, landing as
// BENCH.remote.batch=N rows in BENCH_<rev>.json. Each configuration uses
// its own analyst and its own query set, so neither the budget accounting
// nor the server's answer cache couples the two rows.
func benchRemoteProbe(emit func(obs.Event), seed int64) error {
	srv, err := remote.NewServer(remote.ServerConfig{N: 128, Seed: seed, P: 0.5})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	defer hs.Close()
	ctx := context.Background()
	const m = 512
	for i, batch := range []int{1, 256} {
		o, err := remote.Dial(ctx, "http://"+ln.Addr().String(), remote.Options{
			Analyst:  fmt.Sprintf("bench-batch-%d", batch),
			MaxBatch: batch,
		})
		if err != nil {
			return err
		}
		queries := query.RandomSubsets(par.RNG(seed, i), o.N(), m)
		start := time.Now()
		if _, err := o.Answer(ctx, queries); err != nil {
			return err
		}
		emit(obs.Event{
			Phase:   "experiment",
			ID:      fmt.Sprintf("BENCH.remote.batch=%d", batch),
			Seed:    seed,
			Seconds: time.Since(start).Seconds(),
			Sizes:   map[string]int{"queries": m, "batch": batch},
		})
	}
	return nil
}

// benchLPProbe times the LP-decoding workhorse directly: one
// reconstruction LP shape (n=64, m=4n random subset queries) decoded
// against six noise levels, once with a fresh decoder per solve (cold)
// and once through a single recon.Decoder (warm) — the access pattern of
// the E02 harness. Both configurations decode identical answer vectors.
// Each vector moves every query row, so the Decoder's start rule solves
// every one of them cold: BENCH.lp.warm checks that rule, and must report
// no lp.warm_starts and the lp.pivots of BENCH.lp.cold (1,758 at seed 1).
// The metric deltas put lp.pivots / lp.warm_starts in the BENCH.lp rows,
// so benchdiff gates the solver's pivot counts alongside wall clock.
func benchLPProbe(emit func(obs.Event), seed int64) error {
	const n = 64
	rng := par.RNG(seed, 0)
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	alphas := []float64{0, 1, 2, 4, 8, 16}
	answerSets := make([][]float64, len(alphas))
	for ai, alpha := range alphas {
		ans := make([]float64, len(queries))
		for qi, q := range queries {
			s := 0.0
			for _, i := range q {
				s += float64(x[i])
			}
			ans[qi] = s + (rng.Float64()*2-1)*alpha
		}
		answerSets[ai] = ans
	}
	ctx := context.Background()
	for _, mode := range []string{"cold", "warm"} {
		var dec *recon.Decoder
		before := obs.Default().Snapshot()
		start := time.Now()
		for _, ans := range answerSets {
			if dec == nil || mode == "cold" {
				var err error
				dec, err = recon.NewDecoder(n, queries, recon.L1Slack)
				if err != nil {
					return err
				}
			}
			if _, _, err := dec.Decode(ctx, ans); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		delta := obs.Default().Snapshot().Delta(before)
		emit(obs.Event{
			Phase:   "experiment",
			ID:      "BENCH.lp." + mode,
			Seed:    seed,
			Seconds: elapsed.Seconds(),
			Sizes:   map[string]int{"n": n, "queries": 4 * n, "solves": len(alphas)},
			Metrics: &delta,
		})
	}
	return nil
}

// benchConvergeProbe measures the anytime LP attack's query efficiency:
// one streamed n=64, m=4n, chunk=16 reconstruction over an exact oracle,
// reporting the cumulative query count at which 50% and 90% accuracy
// were first reached as BENCH.converge.q50/q90 rows. The workload and
// oracle are deterministic per seed, so the converge.queries counter the
// rows carry is noise-free across hosts — benchdiff gates it
// lower-is-better (more queries for the same accuracy = weaker decoder)
// and ignores the rows' wall clock.
func benchConvergeProbe(emit func(obs.Event), seed int64) error {
	const n, chunk = 64, 16
	x := synth.BinaryDataset(par.RNG(seed, 1), n, 0.5)
	start := time.Now()
	_, res, err := experiments.E02StreamOverOracle(context.Background(), &query.Exact{X: x}, x, seed, chunk, obs.NewCurveSet())
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	for _, row := range []struct {
		id string
		th float64
	}{{"BENCH.converge.q50", 0.5}, {"BENCH.converge.q90", 0.9}} {
		q, ok := res.ToAccuracy[row.th]
		if !ok {
			return fmt.Errorf("accuracy %.0f%% never reached over %d queries", 100*row.th, res.Queries)
		}
		emit(obs.Event{
			Phase:   "experiment",
			ID:      row.id,
			Seed:    seed,
			Seconds: elapsed,
			Sizes:   map[string]int{"n": n, "queries": res.Queries, "chunk": chunk},
			Metrics: &obs.Snapshot{Counters: map[string]int64{obs.ConvergeCounter: int64(q)}},
		})
	}
	return nil
}

// writeBench folds the finished journal back into a BENCH_<rev>.json
// summary written beside it.
func writeBench(journalPath string) (string, error) {
	f, err := os.Open(journalPath)
	if err != nil {
		return "", err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return "", err
	}
	sum := obs.SummarizeEvents(obs.GitRev("."), events)
	return sum.WriteFile(filepath.Dir(journalPath))
}

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "CI-size runs instead of publication sizes")
	id := flag.String("id", "", "run a single experiment id")
	workers := flag.Int("workers", 0, "worker-pool size for parallel harnesses (0 = GOMAXPROCS); output is identical at any value")
	tool := serve.AddToolFlags(flag.CommandLine, "repro")
	flag.Parse()
	experiments.SetWorkers(*workers)

	if err := tool.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	// ^C / SIGTERM cancels the context threaded through every harness, so
	// an interrupted run still flushes its journal and profiles below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	status := run(ctx, tool, *seed, *quick, *id)
	stopSignals()
	// Close flushes profiles, the span timeline and the journal; losing any
	// of them is a failure even when the experiments succeeded.
	if err := tool.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		if status == 0 {
			status = 1
		}
	}
	os.Exit(status)
}

func run(ctx context.Context, tool *serve.Tool, seed int64, quick bool, id string) int {
	runners := experiments.All()
	if id != "" {
		r, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "repro: unknown experiment %q; valid ids:\n", id)
			for _, e := range runners {
				fmt.Fprintf(os.Stderr, "  %s  %s\n", e.ID, e.Desc)
			}
			return 1
		}
		runners = []experiments.Runner{r}
	}

	tool.Emit(obs.Event{
		Phase: "run_start",
		Seed:  seed,
		Quick: quick,
		Sizes: map[string]int{"experiments": len(runners)},
	})

	// Attempt every experiment, collecting failures instead of aborting on
	// the first: a broken harness must not mask results from the others.
	var failures []string
	runStart := time.Now()
	for _, r := range runners {
		tool.SetPhase(r.ID)
		start := time.Now()
		var tab *experiments.Table
		var delta obs.Snapshot
		var err error
		if tool.Observing() {
			tab, delta, err = r.RunInstrumented(ctx, seed, quick)
		} else {
			tab, err = r.Run(ctx, seed, quick)
		}
		elapsed := time.Since(start)
		ev := obs.Event{
			Phase:   "experiment",
			ID:      r.ID,
			Seed:    seed,
			Quick:   quick,
			Seconds: elapsed.Seconds(),
		}
		if !delta.Empty() {
			ev.Metrics = &delta
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", r.ID, err))
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", r.ID, err)
			ev.Error = err.Error()
			tool.Emit(ev)
			continue
		}
		ev.Sizes = map[string]int{"rows": len(tab.Rows)}
		tool.Emit(ev)
		if err := tab.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		fmt.Printf("  [%s completed in %s]\n\n", r.ID, elapsed.Round(time.Millisecond))
	}
	if tool.Observing() {
		tool.SetPhase("bench_probe")
		if err := benchCensusProbe(tool.Emit, seed); err != nil {
			fmt.Fprintf(os.Stderr, "repro: bench probe: %v\n", err)
		}
		if err := benchRemoteProbe(tool.Emit, seed); err != nil {
			fmt.Fprintf(os.Stderr, "repro: remote bench probe: %v\n", err)
		}
		if err := benchLPProbe(tool.Emit, seed); err != nil {
			fmt.Fprintf(os.Stderr, "repro: lp bench probe: %v\n", err)
		}
		if err := benchConvergeProbe(tool.Emit, seed); err != nil {
			fmt.Fprintf(os.Stderr, "repro: converge bench probe: %v\n", err)
		}
	}
	tool.Emit(obs.Event{
		Phase:   "run_end",
		Seed:    seed,
		Quick:   quick,
		Seconds: time.Since(runStart).Seconds(),
		Sizes:   map[string]int{"experiments": len(runners), "failures": len(failures)},
	})
	tool.SetPhase("done")

	if path := tool.MetricsPath(); path != "" {
		if benchPath, err := writeBench(path); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		} else {
			fmt.Printf("  [journal %s, summary %s]\n", path, benchPath)
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "repro: %d of %d experiments failed:\n", len(failures), len(runners))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		return 1
	}
	return 0
}
