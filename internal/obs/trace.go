package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one traced span. NoSpan (zero) means "no parent" /
// "not traced".
type SpanID int64

// NoSpan is the zero SpanID: a span with no parent, or a disabled span.
const NoSpan SpanID = 0

// MainLane is the timeline lane (Chrome trace tid) of the orchestrating
// goroutine. Worker goroutines get their own lanes via Tracer.NewLane.
const MainLane = 0

// tracePID is the synthetic Chrome trace process id; the whole run is one
// process.
const tracePID = 1

// DefaultTraceLimit caps retained trace events so a full-size run (which
// can execute millions of pool items) cannot exhaust memory; events beyond
// the cap are counted in Dropped and omitted from the export.
const DefaultTraceLimit = 1 << 20

// TraceEvent is one record of the Chrome "Trace Event Format" — the JSON
// schema Perfetto and chrome://tracing load. Complete events (Ph "X")
// carry a start timestamp and duration in microseconds; metadata events
// (Ph "M") name the process and the per-worker thread lanes.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects hierarchical spans with per-goroutine lane attribution
// and exports them as Chrome trace-event JSON. Unlike the Registry's
// latency histograms (which aggregate), the Tracer keeps individual span
// records: one timeline lane per pool worker, one complete event per work
// item, each carrying its span id and its parent's id. It starts disabled;
// the disabled Begin path is one atomic load.
type Tracer struct {
	enabled atomic.Bool
	nextID  atomic.Int64 // span ids; lane ids share the counter's mutex

	mu      sync.Mutex
	start   time.Time
	events  []TraceEvent
	lanes   map[int]string // tid -> lane name (MainLane is preset)
	nextTID int
	limit   int
	dropped int64
	procs   []traceProc // merged remote processes (AddProcess)
}

// traceProc is one merged remote process: its events are already re-based
// to this tracer's epoch and stamped with their own pid.
type traceProc struct {
	pid    int
	name   string
	lanes  map[int]string
	events []TraceEvent
}

// NewTracer returns an empty, disabled tracer with the default event
// limit.
func NewTracer() *Tracer {
	t := &Tracer{}
	t.reset()
	return t
}

var defaultTracer = NewTracer()

// DefaultTracer returns the process-wide tracer internal/par records
// worker spans into. It starts disabled; cmd tools enable it for -spans.
func DefaultTracer() *Tracer { return defaultTracer }

// SetEnabled turns span collection on or off. The first enable stamps the
// trace epoch (timestamp zero of the exported timeline).
func (t *Tracer) SetEnabled(on bool) {
	if on {
		t.mu.Lock()
		if t.start.IsZero() {
			t.start = time.Now()
		}
		t.mu.Unlock()
	}
	t.enabled.Store(on)
}

// Enabled reports whether the tracer is collecting.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Dropped returns the number of events discarded by the retention limit.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards all collected events and lanes and re-stamps the epoch.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reset()
}

func (t *Tracer) reset() {
	t.start = time.Time{}
	if t.enabled.Load() {
		t.start = time.Now()
	}
	t.events = nil
	t.lanes = map[int]string{MainLane: "main"}
	t.nextTID = MainLane
	t.limit = DefaultTraceLimit
	t.dropped = 0
	t.procs = nil
}

// NewLane allocates a fresh timeline lane (Chrome trace tid) with the
// given display name — one per pool worker goroutine. Returns MainLane
// when the tracer is disabled.
func (t *Tracer) NewLane(name string) int {
	if !t.enabled.Load() {
		return MainLane
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTID++
	t.lanes[t.nextTID] = name
	return t.nextTID
}

// TraceSpan is one in-flight traced operation. The zero TraceSpan (from a
// disabled tracer) is a no-op.
type TraceSpan struct {
	t      *Tracer
	name   string
	cat    string
	tid    int
	id     SpanID
	parent SpanID
	begin  time.Time
	args   map[string]any
}

// WithArg attaches one key/value argument to the span's exported event
// (e.g. the wire trace id a remote client propagates). No-op on the zero
// TraceSpan; returns the span for chaining.
func (s TraceSpan) WithArg(key string, v any) TraceSpan {
	if s.t == nil {
		return s
	}
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = v
	return s
}

// ID returns the span's id (NoSpan for a disabled span), usable as the
// parent of child spans.
func (s TraceSpan) ID() SpanID { return s.id }

// Begin starts a span named name in category cat on lane tid, recording
// parent as its hierarchical parent (NoSpan for roots). It returns the
// zero TraceSpan when the tracer is disabled.
func (t *Tracer) Begin(name, cat string, tid int, parent SpanID) TraceSpan {
	if !t.enabled.Load() {
		return TraceSpan{}
	}
	return TraceSpan{
		t:      t,
		name:   name,
		cat:    cat,
		tid:    tid,
		id:     SpanID(t.nextID.Add(1)),
		parent: parent,
		begin:  time.Now(),
	}
}

// End completes the span, appending one Chrome complete event carrying the
// span id and parent id as args. No-op on the zero TraceSpan.
func (s TraceSpan) End() {
	if s.t == nil {
		return
	}
	end := time.Now()
	args := map[string]any{"id": int64(s.id)}
	if s.parent != NoSpan {
		args["parent"] = int64(s.parent)
	}
	for k, v := range s.args {
		args[k] = v
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, TraceEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		TS:   float64(s.begin.Sub(t.start).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(s.begin).Nanoseconds()) / 1e3,
		PID:  tracePID,
		TID:  s.tid,
		Args: args,
	})
}

// Counter records one Chrome trace counter sample (Ph "C"): a named
// scalar series Perfetto renders as its own counter track — a line chart
// climbing next to the span lanes. The CurveSet mirrors convergence
// points here so a -spans export shows attack accuracy rising alongside
// the client/server spans that earned it. No-op while disabled; samples
// count against the retention limit like spans.
func (t *Tracer) Counter(name string, value float64) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, TraceEvent{
		Name: name,
		Cat:  "converge",
		Ph:   "C",
		TS:   float64(time.Since(t.start).Nanoseconds()) / 1e3,
		PID:  tracePID,
		TID:  MainLane,
		Args: map[string]any{"value": value},
	})
}

// Events returns a copy of the collected complete events (metadata lane
// events are synthesized at export time).
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	return out
}

// TraceDump is the transportable form of a tracer's collected state. The
// serve package's /trace endpoint returns it and Tracer.AddProcess merges
// a remote process's dump into a local export, which is how a
// `reconstruct -remote -spans` run folds the qserver's server-side spans
// into one Chrome trace next to its own client-side lanes. Epoch is the
// wall-clock instant of timestamp zero (unix microseconds): two processes
// on the same host share a wall clock, so re-basing one epoch onto the
// other interleaves their spans on a single timeline.
type TraceDump struct {
	V               int            `json:"v"`
	Process         string         `json:"process"`
	EpochUnixMicros int64          `json:"epoch_unix_us"`
	Lanes           map[int]string `json:"lanes"`
	Events          []TraceEvent   `json:"events"`
	Dropped         int64          `json:"dropped"`
}

// TraceDumpV is the TraceDump schema version.
const TraceDumpV = 1

// Dump snapshots the tracer's collected spans for transport (the /trace
// endpoint). process names the producing process in the merged export.
func (t *Tracer) Dump(process string) TraceDump {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceDump{
		V:       TraceDumpV,
		Process: process,
		Lanes:   make(map[int]string, len(t.lanes)),
		Events:  make([]TraceEvent, len(t.events)),
		Dropped: t.dropped,
	}
	if !t.start.IsZero() {
		d.EpochUnixMicros = t.start.UnixMicro()
	}
	for tid, name := range t.lanes {
		d.Lanes[tid] = name
	}
	copy(d.Events, t.events)
	return d
}

// AddProcess merges a remote process's trace dump into this tracer's next
// export: the dump's events keep their own lanes under a fresh Chrome
// trace pid and are re-based from the dump's epoch onto this tracer's, so
// WriteChromeTrace renders both processes interleaved on one timeline.
// Merged events do not count against the local retention limit (the
// remote tracer already applied its own).
func (t *Tracer) AddProcess(d TraceDump) {
	t.mu.Lock()
	defer t.mu.Unlock()
	shift := 0.0
	if !t.start.IsZero() && d.EpochUnixMicros != 0 {
		shift = float64(d.EpochUnixMicros - t.start.UnixMicro())
	}
	p := traceProc{
		pid:    tracePID + 1 + len(t.procs),
		name:   d.Process,
		lanes:  make(map[int]string, len(d.Lanes)),
		events: make([]TraceEvent, len(d.Events)),
	}
	if p.name == "" {
		p.name = fmt.Sprintf("process %d", p.pid)
	}
	for tid, name := range d.Lanes {
		p.lanes[tid] = name
	}
	for i, e := range d.Events {
		e.TS += shift
		e.PID = p.pid
		p.events[i] = e
	}
	t.procs = append(t.procs, p)
}

// chromeTrace is the top-level JSON object Perfetto loads.
type chromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the collected spans as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: process and
// thread-name metadata first, then the complete events sorted by start
// time. The tracer keeps its events; call Reset to discard them.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	events := make([]TraceEvent, len(t.events))
	copy(events, t.events)
	lanes := make(map[int]string, len(t.lanes))
	for tid, name := range t.lanes {
		lanes[tid] = name
	}
	dropped := t.dropped
	procs := make([]traceProc, len(t.procs))
	copy(procs, t.procs)
	t.mu.Unlock()

	for _, p := range procs {
		events = append(events, p.events...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	meta := []TraceEvent{{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "singlingout"},
	}}
	tids := make([]int, 0, len(lanes))
	for tid := range lanes {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		meta = append(meta, TraceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": lanes[tid]},
		})
	}
	for _, p := range procs {
		meta = append(meta, TraceEvent{
			Name: "process_name", Ph: "M", PID: p.pid,
			Args: map[string]any{"name": p.name},
		})
		ptids := make([]int, 0, len(p.lanes))
		for tid := range p.lanes {
			ptids = append(ptids, tid)
		}
		sort.Ints(ptids)
		for _, tid := range ptids {
			meta = append(meta, TraceEvent{
				Name: "thread_name", Ph: "M", PID: p.pid, TID: tid,
				Args: map[string]any{"name": p.lanes[tid]},
			})
		}
	}
	if dropped > 0 {
		meta = append(meta, TraceEvent{
			Name: fmt.Sprintf("trace limit: %d events dropped", dropped),
			Cat:  "obs", Ph: "i", PID: tracePID, TID: MainLane,
			Args: map[string]any{"dropped": dropped},
		})
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeTrace{TraceEvents: append(meta, events...), DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("obs: trace export: %w", err)
	}
	return nil
}
