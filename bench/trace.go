package main

import (
	"sync"
	"sync/atomic"
	"time"

	"singlingout/internal/obs"
)

// tracer records the benchmark's layer spans. Each span is timed here,
// where its self time (duration minus its child spans) is summed per stage
// for the whole timed phase, and is also recorded into the obs tracer, so
// the Perfetto export shows it next to the program's own par and
// query_batch spans.
type tracer struct {
	ot *obs.Tracer

	mu   sync.Mutex
	self map[string]time.Duration
}

func newTracer(ot *obs.Tracer) *tracer {
	return &tracer{ot: ot, self: map[string]time.Duration{}}
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.self = map[string]time.Duration{}
	t.mu.Unlock()
}

// selfTimes returns the summed self time of every stage.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.self))
	for k, v := range t.self {
		out[k] = v
	}
	return out
}

// span is one in-flight layer span. The nil span (from an untraced run) is
// a no-op.
type span struct {
	t      *tracer
	stage  string
	lane   int
	start  time.Time
	parent *span
	// child is the summed duration of the span's children. A child may
	// end on another goroutine (a server handler under a client request),
	// so it is atomic.
	child atomic.Int64
	ot    obs.TraceSpan
}

// begin starts a span of the given stage under parent (nil for a root on
// the main lane); a child shares its parent's lane. It returns nil when t
// is nil.
func (t *tracer) begin(stage string, parent *span) *span {
	lane := obs.MainLane
	if parent != nil {
		lane = parent.lane
	}
	return t.beginOn(stage, parent, lane)
}

// beginOn is begin on an explicit obs trace lane.
func (t *tracer) beginOn(stage string, parent *span, lane int) *span {
	if t == nil {
		return nil
	}
	pid := obs.NoSpan
	if parent != nil {
		pid = parent.ot.ID()
	}
	return &span{t: t, stage: stage, lane: lane, start: time.Now(), parent: parent, ot: t.ot.Begin(stage, "bench", lane, pid)}
}

// lane allocates a named obs trace lane (the main lane when t is nil or
// the obs tracer is off).
func (t *tracer) lane(name string) int {
	if t == nil {
		return obs.MainLane
	}
	return t.ot.NewLane(name)
}

// end completes the span and adds its self time to its stage.
func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.ot.End()
	if s.parent != nil {
		s.parent.child.Add(int64(d))
	}
	self := d - time.Duration(s.child.Load())
	s.t.mu.Lock()
	s.t.self[s.stage] += self
	s.t.mu.Unlock()
}
