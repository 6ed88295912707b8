package obs

import (
	"fmt"
	"sync"
)

// CurvePoint is one sample of a convergence curve: X is the resource the
// attack has consumed so far (queries answered, table cells ingested) and
// Y the metric it has achieved (reconstruction accuracy, exact-match
// fraction). Stats optionally carries the solver cost behind the point
// (SAT decisions/restarts, LP pivots), so a curve consumer can plot
// accuracy against work as well as against queries.
type CurvePoint struct {
	X     int64            `json:"x"`
	Y     float64          `json:"y"`
	Stats map[string]int64 `json:"stats,omitempty"`
}

// CurveSample is one curve point tagged with its curve name — the unit
// embedded in attack.converge journal events and streamed over the serve
// package's SSE /converge endpoint.
type CurveSample struct {
	Name string `json:"curve"`
	CurvePoint
}

// CurveSet is a registry of named convergence curves. Attacks append
// monotone (x, y) points while they run; the set retains the full series
// per curve and — when attached — mirrors every point into a run journal
// as an attack.converge event (the journal's subscribers are the live
// tail) and into a Tracer as a Chrome counter event (a Perfetto counter
// lane climbing next to the span timeline). Safe for concurrent use.
type CurveSet struct {
	mu      sync.Mutex
	order   []string
	curves  map[string][]CurvePoint
	journal *Journal
	tracer  *Tracer
}

// NewCurveSet returns an empty curve set with no journal or tracer
// attached.
func NewCurveSet() *CurveSet {
	return &CurveSet{curves: map[string][]CurvePoint{}}
}

var defaultCurves = func() *CurveSet {
	cs := NewCurveSet()
	cs.SetTracer(defaultTracer)
	return cs
}()

// DefaultCurves returns the process-wide curve set the streaming attack
// harnesses record into and the serve package's /converge endpoint reads.
// Its points land on the default tracer as counter events whenever span
// collection is enabled; cmd tools attach their run journal via
// SetJournal.
func DefaultCurves() *CurveSet { return defaultCurves }

// SetJournal attaches (or with nil detaches) a run journal: every sample
// added after this call is also emitted as an attack.converge journal
// event carrying the sample under Event.Curve.
func (cs *CurveSet) SetJournal(j *Journal) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.journal = j
}

// SetTracer attaches (or with nil detaches) a tracer: every sample added
// after this call is also recorded as a Chrome trace counter event when
// the tracer is enabled.
func (cs *CurveSet) SetTracer(t *Tracer) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.tracer = t
}

// Curve returns the named curve, creating it if needed. Names follow the
// metric-name convention (lowercase dotted, e.g. "recon.lp.accuracy");
// repolint's obsnames analyzer holds Curve call sites to it.
func (cs *CurveSet) Curve(name string) *Curve {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, ok := cs.curves[name]; !ok {
		cs.curves[name] = nil
		cs.order = append(cs.order, name)
	}
	return &Curve{set: cs, name: name}
}

// Names returns the curve names in creation order.
func (cs *CurveSet) Names() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]string(nil), cs.order...)
}

// Snapshot returns a copy of every curve's full point series.
func (cs *CurveSet) Snapshot() map[string][]CurvePoint {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make(map[string][]CurvePoint, len(cs.curves))
	for name, pts := range cs.curves {
		out[name] = append([]CurvePoint(nil), pts...)
	}
	return out
}

// Reset discards every curve; journal and tracer attachments survive.
func (cs *CurveSet) Reset() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.order = nil
	cs.curves = map[string][]CurvePoint{}
}

// Curve is one named convergence series of its CurveSet. The zero Curve
// is not usable; obtain curves from a CurveSet.
type Curve struct {
	set  *CurveSet
	name string
}

// Name returns the curve's name.
func (c *Curve) Name() string { return c.name }

// Add appends one (x, y) point. X must be strictly increasing along the
// curve — the series is indexed by resource spent, which only grows —
// and Add panics on a violation, since an out-of-order point is a
// harness bug that would silently corrupt every downstream consumer.
func (c *Curve) Add(x int64, y float64) { c.AddStats(x, y, nil) }

// AddStats is Add with a solver-cost annotation (e.g. SAT
// decisions/restarts at this point); stats may be nil and is retained by
// reference, so callers must not mutate it afterwards.
func (c *Curve) AddStats(x int64, y float64, stats map[string]int64) {
	sample := CurveSample{Name: c.name, CurvePoint: CurvePoint{X: x, Y: y, Stats: stats}}
	cs := c.set
	cs.mu.Lock()
	pts := cs.curves[c.name]
	if n := len(pts); n > 0 && x <= pts[n-1].X {
		last := pts[n-1].X
		cs.mu.Unlock()
		panic(fmt.Sprintf("obs: curve %q x=%d is not after x=%d (points must be strictly increasing in x)", c.name, x, last))
	}
	cs.curves[c.name] = append(pts, sample.CurvePoint)
	journal, tracer := cs.journal, cs.tracer
	cs.mu.Unlock()

	// Mirror outside the lock: neither sink calls back into the set. A
	// journal write failure must not abort the attack, so it is dropped.
	if journal != nil {
		_ = journal.Emit(Event{Phase: "attack.converge", ID: c.name, Curve: &sample})
	}
	if tracer != nil {
		tracer.Counter(c.name, y)
	}
}

// Len returns the number of points on the curve.
func (c *Curve) Len() int {
	c.set.mu.Lock()
	defer c.set.mu.Unlock()
	return len(c.set.curves[c.name])
}

// Points returns a copy of the curve's series.
func (c *Curve) Points() []CurvePoint {
	c.set.mu.Lock()
	defer c.set.mu.Unlock()
	return append([]CurvePoint(nil), c.set.curves[c.name]...)
}
