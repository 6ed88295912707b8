// Command reconstruct points the LP-decoding attack at a live qserver
// instead of an in-process oracle: it dials the server, regenerates the
// ground truth locally from the advertised (seed, n, p), and runs the
// E02.remote sweep over the wire. Every in-process table, the anytime
// attacks E02.stream and E11.stream among them, is repro's: `repro
// -quick -id E02.stream`.
//
// Usage:
//
//	reconstruct -remote http://host:port [-stream] [-remote-backend exact]
//	            [-analyst name] [-seed 1] [-full] [-stats]
//	            [-metrics out.jsonl] [-serve :8088] [-spans out.trace.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// Without -remote it exits 2.
//
// -remote-backend selects the server oracle (exact, laplace, diffix) and
// -analyst the budget-accounting identity. Against the exact backend the
// table is byte-identical to the same sweep run in-process at the same
// seed. A budget that runs out mid-sweep exits 1: the defense held.
//
// -stream runs E02.stream's anytime attack against the server instead:
// one m = 4n workload answered n/4 queries at a time, with a cold
// re-decode after every chunk, each adding one point to the
// recon.lp.accuracy convergence curve. The table reports
// queries-to-X%-accuracy milestones, and the final reconstruction is
// bit for bit the batch decode of the same workload.
//
// -stats appends an obs metrics footer (oracle queries, simplex pivots,
// ...) to the table.
//
// -metrics records a JSONL run journal (run_start, one experiment event,
// run_end, and with -stream one attack.converge event per chunk); -serve
// exposes the live observability HTTP endpoint (Prometheus /metrics,
// /snapshot, /healthz, SSE /journal and /converge, /debug/pprof/) while
// the attack runs; -spans exports the Chrome trace-event timeline. The
// qserver's server-side spans are fetched from its /trace endpoint after
// the attack and merged into the same export as a second Perfetto
// process, interleaved with the client's lanes and filtered to this run's
// wire trace id.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"singlingout/internal/experiments"
	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reconstruct", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed")
	full := fs.Bool("full", false, "run the publication-size sweep (more query budgets)")
	stats := fs.Bool("stats", false, "append an obs metrics footer to the table")
	stream := fs.Bool("stream", false, "run the anytime attack: incremental decodes with a live convergence curve")
	remoteURL := fs.String("remote", "", "base URL of the running qserver to attack")
	remoteBackend := fs.String("remote-backend", "exact", "qserver backend to attack: exact, laplace, diffix")
	analyst := fs.String("analyst", "", "budget-accounting identity sent to the qserver")
	tool := serve.AddToolFlags(fs, "reconstruct")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *remoteURL == "" {
		fmt.Fprintln(stderr, "reconstruct: pass -remote URL; the in-process tables are repro's (e.g. repro -quick -id E02.stream)")
		return 2
	}

	if err := tool.Start(); err != nil {
		fmt.Fprintf(stderr, "reconstruct: %v\n", err)
		return 1
	}
	// ^C / SIGTERM cancels the context threaded through the attack
	// harness (and any in-flight remote batch), so an interrupted run
	// still flushes its journal and profiles below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	c := &cli{tool: tool, stdout: stdout, stderr: stderr, seed: *seed, quick: !*full, stats: *stats}
	status := c.runRemote(ctx, *remoteURL, remote.Options{Backend: *remoteBackend, Analyst: *analyst}, *stream)
	stopSignals()
	if err := tool.Close(); err != nil {
		fmt.Fprintf(stderr, "reconstruct: %v\n", err)
		if status == 0 {
			status = 1
		}
	}
	return status
}

// cli is one reconstruct invocation: its observability plumbing, its
// output streams and the settings of the attack.
type cli struct {
	tool           *serve.Tool
	stdout, stderr io.Writer
	seed           int64
	quick, stats   bool
}

// runRemote mounts the LP-decoding sweep against a qserver: ground truth
// is regenerated locally from the server's advertised metadata, never
// transmitted. With stream it runs the anytime variant instead.
func (c *cli) runRemote(ctx context.Context, baseURL string, opts remote.Options, stream bool) int {
	o, err := remote.Dial(ctx, baseURL, opts)
	if err != nil {
		fmt.Fprintf(c.stderr, "reconstruct: %v\n", err)
		return 1
	}
	meta := o.Meta()
	fmt.Fprintf(c.stderr, "reconstruct: attacking %s backend %q (n=%d seed=%d budget=%d)\n",
		baseURL, opts.Backend, meta.N, meta.Seed, meta.Budget)
	truth := remote.Dataset(meta.Seed, meta.N, meta.P)
	r := experiments.Runner{ID: "E02.remote", Run: func(ctx context.Context, seed int64, quick bool) (*experiments.Table, error) {
		return experiments.E02OverOracle(ctx, o, truth, seed, quick)
	}}
	if stream {
		r = experiments.Runner{ID: "E02.stream", Run: func(ctx context.Context, seed int64, _ bool) (*experiments.Table, error) {
			tab, _, err := experiments.E02StreamOverOracle(ctx, o, truth, seed)
			return tab, err
		}}
	}
	status := c.runAttack(ctx, r, meta.N)
	if status == 0 {
		c.mergeServerTrace(ctx, o, baseURL)
	}
	return status
}

// runAttack runs r and journals it: run_start with sizes, one experiment
// event, run_end. The table goes to stdout, its metrics footer only with
// -stats. A failure returns status 1; a server budget running out is
// reported as the defense holding.
func (c *cli) runAttack(ctx context.Context, r experiments.Runner, n int) int {
	c.tool.Emit(obs.Event{Phase: "run_start", Seed: c.seed, Quick: c.quick, Sizes: map[string]int{"experiments": 1, "n": n}})
	c.tool.SetPhase(r.ID)
	start := time.Now()
	var tab *experiments.Table
	var delta obs.Snapshot
	var err error
	if c.stats || c.tool.Observing() {
		tab, delta, err = r.RunInstrumented(ctx, c.seed, c.quick)
	} else {
		tab, err = r.Run(ctx, c.seed, c.quick)
	}
	ev := obs.Event{Phase: "experiment", ID: r.ID, Seed: c.seed, Quick: c.quick, Seconds: time.Since(start).Seconds()}
	if !delta.Empty() {
		ev.Metrics = &delta
	}
	if err != nil {
		ev.Error = err.Error()
		c.tool.Emit(ev)
		if errors.Is(err, query.ErrBudgetExhausted) {
			fmt.Fprintf(c.stderr, "reconstruct: the server's query budget ran out mid-attack — the defense held: %v\n", err)
		} else {
			fmt.Fprintf(c.stderr, "reconstruct: %s: %v\n", r.ID, err)
		}
		return 1
	}
	c.tool.Emit(ev)
	if !c.stats {
		// The metrics footer stays opt-in via -stats even when a
		// journal forced the instrumented path.
		tab.Metrics = obs.Snapshot{}
	}
	if err := tab.Fprint(c.stdout); err != nil {
		fmt.Fprintf(c.stderr, "reconstruct: %v\n", err)
		return 1
	}
	c.tool.Emit(obs.Event{
		Phase:   "run_end",
		Seed:    c.seed,
		Quick:   c.quick,
		Seconds: time.Since(start).Seconds(),
		Sizes:   map[string]int{"experiments": 1},
	})
	c.tool.SetPhase("done")
	return 0
}

// mergeServerTrace folds the qserver's server-side spans into the local
// Chrome trace export (-spans): it fetches the server's /trace dump,
// keeps the spans stamped with this client's wire trace id, and merges
// them as a second Perfetto process lane next to the client's own. A
// server without the obs endpoint (or an older one) degrades to a
// client-only trace with a note, never a failed run.
func (c *cli) mergeServerTrace(ctx context.Context, o *remote.Oracle, baseURL string) {
	if !c.tool.SpanExport() {
		return
	}
	dump, err := o.FetchTrace(ctx)
	if err != nil {
		fmt.Fprintf(c.stderr, "reconstruct: no server spans merged (%v); the trace will be client-only\n", err)
		return
	}
	kept := dump.Events[:0]
	for _, e := range dump.Events {
		if e.Args["trace"] == o.TraceID() {
			kept = append(kept, e)
		}
	}
	dump.Events = kept
	dump.Process = "qserver " + baseURL
	obs.DefaultTracer().AddProcess(dump)
	fmt.Fprintf(c.stderr, "reconstruct: merged %d server spans (trace %s) into the span export\n",
		len(kept), o.TraceID())
}
