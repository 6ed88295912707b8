// Package serve is the live half of the observability stack: an HTTP
// server that exposes a running attack pipeline's obs state while it
// works. Endpoints:
//
//	/metrics       Prometheus text exposition of the registry snapshot
//	/snapshot      the raw obs.Snapshot as JSON
//	/healthz       run phase, uptime, journal event count
//	/journal       Server-Sent Events tail of the live run journal
//	/converge      attack convergence curves: full series as JSON, or a
//	               replay + live SSE tail of the journal's attack.converge
//	               events with Accept: text/event-stream
//	/debug/pprof/  the stdlib pprof handlers
//
// The cmd tools start it with -serve addr (wired through Tool, the shared
// CLI helper in this package), so a quick scrape during a long run answers
// "how many oracle queries so far" without waiting for the final table.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"singlingout/internal/obs"
)

// SanitizeMetricName maps an obs metric name (dotted, e.g.
// "census.workers") to a valid Prometheus identifier
// ([a-zA-Z_:][a-zA-Z0-9_:]*): invalid runes become '_' and a leading
// digit is prefixed with '_'.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if r >= '0' && r <= '9' {
			if i == 0 {
				b.WriteByte('_')
			}
			valid = true
		}
		if !valid {
			r = '_'
		}
		b.WriteRune(r)
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges verbatim under their
// sanitized names, histograms as native Prometheus histograms — the full
// cumulative `<name>_bucket{le="..."}` series (base-2 boundaries; empty
// buckets elided, `+Inf` always present) plus `<name>_sum` and
// `<name>_count`, so scrapers can run histogram_quantile — with run-wide
// <name>_min/_max/_mean and derived _p50/_p90/_p99/_p999 gauges
// alongside. Families are name-sorted so scrapes diff cleanly.
func WritePrometheus(w io.Writer, s obs.Snapshot) error {
	var b bytes.Buffer
	for _, name := range sortedKeys(s.Counters) {
		m := SanitizeMetricName(name)
		fmt.Fprintf(&b, "# HELP %s obs counter %s\n# TYPE %s counter\n%s %d\n",
			m, name, m, m, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		m := SanitizeMetricName(name)
		fmt.Fprintf(&b, "# HELP %s obs gauge %s\n# TYPE %s gauge\n%s %s\n",
			m, name, m, m, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		m := SanitizeMetricName(name)
		h := s.Histograms[name]
		fmt.Fprintf(&b, "# HELP %s obs histogram %s\n# TYPE %s histogram\n", m, name, m)
		var cum int64
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			cum += c
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", m, obs.BucketUpperBound(i), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", m, h.Sum, m, h.Count)
		for _, g := range []struct {
			suffix string
			v      float64
		}{
			{"max", float64(h.Max)}, {"mean", h.Mean}, {"min", float64(h.Min)},
			{"p50", h.P50}, {"p90", h.P90}, {"p99", h.P99}, {"p999", h.P999},
		} {
			fmt.Fprintf(&b, "# TYPE %s_%s gauge\n%s_%s %s\n", m, g.suffix, m, g.suffix, promFloat(g.v))
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Health is the /healthz response body.
type Health struct {
	Status        string  `json:"status"`
	Phase         string  `json:"phase"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	JournalEvents int     `json:"journal_events"`
	// JournalDropped counts events dropped for slow live subscribers (the
	// JSONL file never drops); a tail reader seeing this grow knows its
	// SSE stream has gaps.
	JournalDropped int64 `json:"journal_dropped,omitempty"`
}

// Server serves the observability endpoints for one registry and
// (optionally) one live journal. Create with New, bind with Start, stop
// with Close.
type Server struct {
	reg     *obs.Registry
	journal *obs.Journal  // nil: the /journal and /converge SSE tails respond 404
	tracer  *obs.Tracer   // never nil; /trace serves its dump
	curves  *obs.CurveSet // never nil; /converge serves it
	start   time.Time
	phase   atomic.Value // string
	mux     *http.ServeMux
	srv     *http.Server
	done    chan struct{}
}

// New builds a server over reg (usually obs.Default()) and journal (may be
// nil when no run journal exists; the SSE tails then respond 404). The /trace
// endpoint serves the process-wide obs.DefaultTracer dump and /converge
// the process-wide obs.DefaultCurves set.
func New(reg *obs.Registry, journal *obs.Journal) *Server {
	s := &Server{
		reg:     reg,
		journal: journal,
		tracer:  obs.DefaultTracer(),
		curves:  obs.DefaultCurves(),
		start:   time.Now(),
		mux:     http.NewServeMux(),
		done:    make(chan struct{}),
	}
	s.phase.Store("init")
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/journal", s.handleJournal)
	s.mux.HandleFunc("/converge", s.handleConverge)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's mux (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// SetPhase updates the run phase /healthz reports (e.g. "E02",
// "bench_probe", "done").
func (s *Server) SetPhase(phase string) { s.phase.Store(phase) }

// Start binds addr (":0" picks a free port) and serves in the background,
// returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	s.srv = &http.Server{Handler: s.mux}
	//lint:ignore boundedgo HTTP accept loop, not work fan-out; its lifetime is bounded by Close
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close force-closes the server, terminating in-flight SSE streams.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	close(s.done)
	err := s.srv.Close()
	s.srv = nil
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "singlingout observability (phase %s)\n\n", s.phase.Load())
	fmt.Fprint(w, "/metrics        Prometheus text exposition\n")
	fmt.Fprint(w, "/snapshot       obs.Snapshot JSON\n")
	fmt.Fprint(w, "/healthz        phase + uptime\n")
	fmt.Fprint(w, "/journal        SSE tail of the run journal\n")
	fmt.Fprint(w, "/converge       attack convergence curves (JSON; SSE with Accept: text/event-stream)\n")
	fmt.Fprint(w, "/trace          collected trace spans as an obs.TraceDump (JSON)\n")
	fmt.Fprint(w, "/debug/pprof/   stdlib profiling handlers\n")
}

// handleTrace serves the tracer's collected spans as a TraceDump, the
// payload a remote client merges into its own Chrome trace export
// (obs.Tracer.AddProcess) to interleave server-side spans with its own.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.tracer.Dump("singlingout server")) //nolint:errcheck // client gone
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, s.reg.Snapshot()); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.reg.Snapshot()) //nolint:errcheck // client gone
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{
		Status:        "ok",
		Phase:         s.phase.Load().(string),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.journal != nil {
		h.JournalEvents = s.journal.Events()
		h.JournalDropped = s.journal.Dropped()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h) //nolint:errcheck // client gone
}

// handleJournal streams the run journal as Server-Sent Events.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	s.tail(w, r, "journal", func(e obs.Event) any { return e })
}

// convergeSnapshot is the JSON /converge response body.
type convergeSnapshot struct {
	// Curves maps curve name to its full (x, y) series so far.
	Curves map[string][]obs.CurvePoint `json:"curves"`
	// Dropped counts journal events dropped for slow SSE subscribers.
	Dropped int64 `json:"dropped"`
}

// handleConverge serves the attack convergence curves. The default
// response is a JSON snapshot of every curve's full series (the batch
// view: plot it after the run). With Accept: text/event-stream it tails
// the run journal instead, passing only attack.converge events; each SSE
// frame is one obs.CurveSample.
func (s *Server) handleConverge(w http.ResponseWriter, r *http.Request) {
	if !strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		snap := convergeSnapshot{Curves: s.curves.Snapshot()}
		if s.journal != nil {
			snap.Dropped = s.journal.Dropped()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap) //nolint:errcheck // client gone
		return
	}
	s.tail(w, r, "converge", func(e obs.Event) any {
		if e.Phase != "attack.converge" {
			return nil
		}
		return e.Curve
	})
}

// tail streams the run journal as Server-Sent Events named event: the
// retained recent events first, then every event as it is emitted, until
// the client disconnects or the server closes. Each frame's data is the
// JSON of frame(e); events for which frame returns nil are skipped.
func (s *Server) tail(w http.ResponseWriter, r *http.Request, event string, frame func(obs.Event) any) {
	if s.journal == nil {
		http.Error(w, "no run journal (start the tool with -metrics)", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	write := func(e obs.Event) error {
		v := frame(e)
		if v == nil {
			return nil
		}
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, line)
		return err
	}
	// A client may fall 256 events behind before events are dropped for
	// it (counted in obs.journal_dropped); the run itself never waits.
	replay, ch, cancel := s.journal.Subscribe(256)
	defer cancel()
	for _, e := range replay {
		if write(e) != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case e := <-ch:
			if write(e) != nil {
				return
			}
			fl.Flush()
		}
	}
}
