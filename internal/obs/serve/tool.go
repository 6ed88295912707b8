package serve

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"singlingout/internal/obs"
)

// Tool is the shared observability plumbing of every cmd: it registers the
// -metrics (JSONL run journal), -serve (live HTTP endpoint), -spans
// (Chrome trace-event worker timeline) and standard profiling flags, and
// owns their lifecycle so each main only calls AddToolFlags / Start /
// Emit / Close instead of re-implementing repro-only wiring.
type Tool struct {
	name        string
	metricsPath *string
	serveAddr   *string
	spansPath   *string
	prof        *obs.Profiler

	stopProf    func() error
	journalFile *os.File
	journal     *obs.Journal
	server      *Server
	boundAddr   string
	closed      bool
}

// AddToolFlags registers the shared observability flags on fs (use
// flag.CommandLine in mains; name prefixes diagnostics) and returns the
// controller. Call Start after flag.Parse and Close before exiting.
func AddToolFlags(fs *flag.FlagSet, name string) *Tool {
	t := &Tool{name: name}
	t.metricsPath = fs.String("metrics", "", "write a JSONL run journal to this file")
	t.serveAddr = fs.String("serve", "", "serve live observability HTTP on this address (/metrics, /snapshot, /healthz, /journal, /converge, /debug/pprof/); :0 picks a port")
	t.spansPath = fs.String("spans", "", "write a Chrome trace-event JSON worker-span timeline to this file on exit (load at ui.perfetto.dev)")
	t.prof = obs.AddProfileFlags(fs)
	return t
}

// Start begins profiling, opens the journal, enables span tracing, and
// binds the live HTTP endpoint — whichever of them the flags requested.
// On error, everything already started is shut back down.
func (t *Tool) Start() error {
	stop, err := t.prof.Start()
	if err != nil {
		return err
	}
	t.stopProf = stop
	if *t.metricsPath != "" {
		f, err := os.Create(*t.metricsPath)
		if err != nil {
			t.Close() //nolint:errcheck // best-effort unwind, Start's error wins
			return fmt.Errorf("%s: metrics journal: %w", t.name, err)
		}
		t.journalFile = f
		t.journal = obs.NewJournal(f)
	}
	if *t.spansPath != "" {
		obs.DefaultTracer().Reset()
		obs.DefaultTracer().SetEnabled(true)
	}
	if *t.serveAddr != "" {
		if t.journal == nil {
			// No journal file, but the SSE tail should still stream the
			// run's events: journal to nowhere, subscribers still see it.
			t.journal = obs.NewJournal(io.Discard)
		}
		t.server = New(obs.Default(), t.journal)
		addr, err := t.server.Start(*t.serveAddr)
		if err != nil {
			t.server = nil
			t.Close() //nolint:errcheck // best-effort unwind, Start's error wins
			return err
		}
		t.boundAddr = addr
		fmt.Fprintf(os.Stderr, "%s: observability at http://%s/ (metrics, snapshot, healthz, journal, converge, debug/pprof)\n", t.name, addr)
	}
	if t.journal != nil {
		obs.Default().SetEnabled(true)
		// Streaming attacks record convergence points into the default
		// curve set, which emits them into the run journal as
		// attack.converge events (what /converge serves).
		obs.DefaultCurves().SetJournal(t.journal)
	}
	return nil
}

// Observing reports whether a run journal exists (from -metrics or
// -serve); mains use it to decide between Run and RunInstrumented.
func (t *Tool) Observing() bool { return t.journal != nil }

// SpanExport reports whether -spans was requested, i.e. whether Close
// will write a Chrome trace. Mains that can merge a remote process's
// spans (reconstruct -remote) use it to decide whether fetching the
// server's /trace dump is worth a round trip.
func (t *Tool) SpanExport() bool { return *t.spansPath != "" }

// Journal returns the run journal (nil when not observing).
func (t *Tool) Journal() *obs.Journal { return t.journal }

// Addr returns the bound live-endpoint address ("" when not serving).
func (t *Tool) Addr() string { return t.boundAddr }

// SetPhase updates the phase /healthz reports; no-op when not serving.
func (t *Tool) SetPhase(phase string) {
	if t.server != nil {
		t.server.SetPhase(phase)
	}
}

// Emit writes one event to the run journal (no-op when not observing);
// journal failures are reported to stderr rather than aborting the run.
func (t *Tool) Emit(e obs.Event) {
	if t.journal == nil {
		return
	}
	if err := t.journal.Emit(e); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", t.name, err)
	}
}

// Close shuts down the live endpoint, writes the span timeline, closes the
// journal and flushes the profiles, joining every error — a heap profile
// or trace file that could not be written surfaces here instead of being
// lost. Safe to call more than once.
func (t *Tool) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	var errs []error
	if t.server != nil {
		errs = append(errs, t.server.Close())
		t.server = nil
	}
	if *t.spansPath != "" {
		tr := obs.DefaultTracer()
		tr.SetEnabled(false)
		if f, err := os.Create(*t.spansPath); err != nil {
			errs = append(errs, fmt.Errorf("%s: spans: %w", t.name, err))
		} else {
			werr := tr.WriteChromeTrace(f)
			cerr := f.Close()
			if werr == nil && cerr == nil {
				fmt.Fprintf(os.Stderr, "%s: wrote worker-span timeline to %s (load at ui.perfetto.dev)\n", t.name, *t.spansPath)
			}
			errs = append(errs, werr, cerr)
		}
		tr.Reset()
	}
	if t.journal != nil {
		obs.DefaultCurves().SetJournal(nil)
	}
	if t.journalFile != nil {
		errs = append(errs, t.journalFile.Close())
		t.journalFile = nil
	}
	if t.stopProf != nil {
		errs = append(errs, t.stopProf())
		t.stopProf = nil
	}
	return errors.Join(errs...)
}
