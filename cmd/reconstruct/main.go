// Command reconstruct runs the two reconstruction attacks cmd/repro does
// not: the anytime attacks, whose convergence curves show at which query
// budget reconstruction crosses each accuracy threshold, and the
// LP-decoding sweep against a live qserver. The in-process batch tables
// of the same attacks (E01, E02, A01, E11, E13) are repro's: `repro -quick
// -id E02`.
//
// Usage:
//
//	reconstruct -stream [-attack all|lp|census] [-chunk N] [-seed 1] [-full] [-stats]
//	reconstruct -remote http://host:port [-stream] [-chunk N] [-remote-backend exact]
//	            [-analyst name] [-seed 1] [-full] [-stats]
//
// Both forms also take [-metrics out.jsonl] [-serve :8088]
// [-spans out.trace.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
// [-trace trace.out]. Without -stream or -remote it exits 2.
//
// -stats appends an obs metrics footer (oracle queries, simplex pivots,
// SAT conflicts, ...) to every table.
//
// -stream runs the attacks anytime: answers are consumed -chunk queries
// at a time with an incremental re-decode after every chunk (LP warm
// starts after the first; SAT learned clauses retained), each step
// appending one point to a convergence curve. With -serve the curve
// streams live over SSE at /converge (and as attack.converge journal
// events on /journal); the final table reports queries-to-X%-accuracy
// milestones, and the final reconstruction is byte-identical to the batch
// path. In-process -stream supports the lp and census attacks; with
// -remote it streams the E02-style sweep's workload against the live
// qserver.
//
// -remote points the LP-decoding attack at a running qserver instead of an
// in-process oracle: it dials the server, regenerates the ground truth
// locally from the advertised (seed, n, p), and runs the E02.remote sweep
// over the wire. -remote-backend selects the server oracle (exact,
// laplace, diffix) and -analyst the budget-accounting identity. Against
// the exact backend the table is byte-identical to the same sweep run
// in-process at the same seed. A budget that runs out mid-sweep exits 1:
// the defense held.
//
// -metrics records a JSONL run journal (one event per attack); -serve
// exposes the live observability HTTP endpoint (Prometheus /metrics,
// /snapshot, /healthz, SSE /journal and /converge, /debug/pprof/) while
// the attacks run; -spans exports the Chrome trace-event timeline.
// Combined with -remote, the qserver's server-side spans are fetched from
// its /trace endpoint after the sweep and merged into the same export as
// a second Perfetto process, interleaved with the client's lanes and
// filtered to this run's wire trace id.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"singlingout/internal/experiments"
	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
	"singlingout/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reconstruct", flag.ContinueOnError)
	fs.SetOutput(stderr)
	attack := fs.String("attack", "all", "in-process attack to stream with -stream: all, lp, census")
	seed := fs.Int64("seed", 1, "random seed")
	full := fs.Bool("full", false, "run publication-size experiments (slower)")
	stats := fs.Bool("stats", false, "append an obs metrics footer to every table")
	stream := fs.Bool("stream", false, "run the attack anytime: incremental decodes with a live convergence curve (lp/census attacks; also with -remote)")
	chunk := fs.Int("chunk", 32, "answers ingested per streaming step with -stream (<= 0 picks n/4)")
	remoteURL := fs.String("remote", "", "attack a running qserver at this base URL instead of in-process oracles")
	remoteBackend := fs.String("remote-backend", "exact", "qserver backend to attack: exact, laplace, diffix")
	analyst := fs.String("analyst", "", "budget-accounting identity sent to the qserver")
	tool := serve.AddToolFlags(fs, "reconstruct")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *remoteURL == "" && !*stream {
		fmt.Fprintln(stderr, "reconstruct: pass -stream or -remote URL; the in-process batch tables are repro's (e.g. repro -quick -id E02)")
		return 2
	}
	runners := streamRunners(*attack, *chunk)
	if *remoteURL == "" && len(runners) == 0 {
		fmt.Fprintf(stderr, "reconstruct: -stream supports the lp and census attacks (got -attack %q)\n", *attack)
		return 2
	}

	if err := tool.Start(); err != nil {
		fmt.Fprintf(stderr, "reconstruct: %v\n", err)
		return 1
	}
	// ^C / SIGTERM cancels the context threaded through the attack
	// harnesses (and any in-flight remote batch), so an interrupted run
	// still flushes its journal and profiles below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	c := &cli{tool: tool, stdout: stdout, stderr: stderr, seed: *seed, quick: !*full, stats: *stats}
	var status int
	if *remoteURL != "" {
		status = c.runRemote(ctx, *remoteURL, remote.Options{Backend: *remoteBackend, Analyst: *analyst}, *stream, *chunk)
	} else {
		c.announceConverge()
		status = c.runAll(ctx, runners, map[string]int{"experiments": len(runners)})
	}
	stopSignals()
	if err := tool.Close(); err != nil {
		fmt.Fprintf(stderr, "reconstruct: %v\n", err)
		if status == 0 {
			status = 1
		}
	}
	return status
}

// streamRunners returns the in-process anytime attacks -attack selects:
// the LP decoder over an exact oracle (E02.stream) and the census SAT
// pipeline (E11.stream), each recording into the default curve set.
func streamRunners(attack string, chunk int) []experiments.Runner {
	var rs []experiments.Runner
	if attack == "lp" || attack == "all" {
		rs = append(rs, experiments.Runner{ID: "E02.stream", Run: func(ctx context.Context, seed int64, quick bool) (*experiments.Table, error) {
			n := 128
			if quick {
				n = 48
			}
			x := synth.BinaryDataset(rand.New(rand.NewSource(seed)), n, 0.5)
			tab, _, err := experiments.E02StreamOverOracle(ctx, &query.Exact{X: x}, x, seed, chunk, obs.DefaultCurves())
			return tab, err
		}})
	}
	if attack == "census" || attack == "all" {
		rs = append(rs, experiments.Runner{ID: "E11.stream", Run: func(ctx context.Context, seed int64, quick bool) (*experiments.Table, error) {
			tab, _, err := experiments.E11StreamConverge(ctx, seed, quick, obs.DefaultCurves())
			return tab, err
		}})
	}
	return rs
}

// cli is one reconstruct invocation: its observability plumbing, its
// output streams and the settings every attack shares.
type cli struct {
	tool           *serve.Tool
	stdout, stderr io.Writer
	seed           int64
	quick, stats   bool
}

// announceConverge points the operator at the live curve endpoint when
// the observability server is up.
func (c *cli) announceConverge() {
	if addr := c.tool.Addr(); addr != "" {
		fmt.Fprintf(c.stderr, "reconstruct: live convergence curve at http://%s/converge (SSE with Accept: text/event-stream)\n", addr)
	}
}

// runRemote mounts the LP-decoding sweep against a qserver: ground truth
// is regenerated locally from the server's advertised metadata, never
// transmitted. With stream it runs the anytime variant instead, the
// workload answered chunk queries at a time.
func (c *cli) runRemote(ctx context.Context, baseURL string, opts remote.Options, stream bool, chunk int) int {
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
		c.announceConverge()
		r = experiments.Runner{ID: "E02.stream", Run: func(ctx context.Context, seed int64, _ bool) (*experiments.Table, error) {
			tab, _, err := experiments.E02StreamOverOracle(ctx, o, truth, seed, chunk, obs.DefaultCurves())
			return tab, err
		}}
	}
	status := c.runAll(ctx, []experiments.Runner{r}, map[string]int{"experiments": 1, "n": meta.N})
	if status == 0 {
		c.mergeServerTrace(ctx, o, baseURL)
	}
	return status
}

// runAll runs rs in order and journals them: run_start with sizes, one
// experiment event per runner, run_end. Each table goes to stdout, its
// metrics footer only with -stats. The first failure ends the run with
// status 1; a server budget running out is reported as the defense
// holding.
func (c *cli) runAll(ctx context.Context, rs []experiments.Runner, sizes map[string]int) int {
	c.tool.Emit(obs.Event{Phase: "run_start", Seed: c.seed, Quick: c.quick, Sizes: sizes})
	runStart := time.Now()
	for _, r := range rs {
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
	}
	c.tool.Emit(obs.Event{
		Phase:   "run_end",
		Seed:    c.seed,
		Quick:   c.quick,
		Seconds: time.Since(runStart).Seconds(),
		Sizes:   map[string]int{"experiments": len(rs)},
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
