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
// (seed, item index), so tables and work counters are identical at every
// worker count. With -metrics, the anytime LP attack's queries-to-accuracy
// probe also lands in the BENCH_<rev>.json summary as the
// BENCH.converge.q50/q90 rows, which `make benchgate` compares with the
// committed baseline like every experiment row.
//
// Failing experiments no longer abort the run: every experiment is
// attempted, failures are reported together at the end, and the exit
// status is nonzero if any failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"singlingout/internal/experiments"
	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/synth"
)

// benchConvergeProbe measures the anytime LP attack's query efficiency:
// one streamed n=64, m=4n, chunk=16 reconstruction over an exact oracle,
// reporting the cumulative query count at which 50% and 90% accuracy
// were first reached as BENCH.converge.q50/q90 rows. The workload and
// oracle are deterministic per seed, so the converge.queries counter the
// rows carry repeats exactly, and benchdiff holds it to the baseline's
// value like any other work counter.
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
			Metrics: &obs.Snapshot{Counters: map[string]int64{"converge.queries": int64(q)}},
		})
	}
	return nil
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
		if benchPath, err := obs.WriteBenchSummary(path); err != nil {
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
