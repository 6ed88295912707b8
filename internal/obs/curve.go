package obs

import "sync"

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

// CurveSet routes the points of named convergence curves to their sinks
// and keeps none of them: each point becomes one attack.converge event in
// the attached run journal (whose retained events and live subscribers
// are the serve package's /converge views) and, while the attached tracer
// is enabled, a Chrome counter event (a Perfetto counter lane climbing
// next to the span timeline). Since nothing is stored, any number of
// attacks may record into one set, one after another in the same
// process. The zero value has no sinks. Safe for concurrent use.
type CurveSet struct {
	mu      sync.Mutex
	journal *Journal
	tracer  *Tracer
}

var defaultCurves = &CurveSet{tracer: defaultTracer}

// DefaultCurves returns the process-wide curve set the streaming attack
// harnesses record into. Its points land on the default tracer as
// counter events whenever span collection is enabled; cmd tools attach
// their run journal via SetJournal.
func DefaultCurves() *CurveSet { return defaultCurves }

// SetJournal attaches (or with nil detaches) a run journal: every point
// added after this call is emitted as an attack.converge journal event
// carrying the sample under Event.Curve.
func (cs *CurveSet) SetJournal(j *Journal) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.journal = j
}

// Curve returns the handle that adds points to the named curve. Names
// follow the metric-name convention (lowercase dotted, e.g.
// "recon.lp.accuracy"); repolint's obsnames analyzer holds Curve call
// sites to it.
func (cs *CurveSet) Curve(name string) *Curve {
	return &Curve{set: cs, name: name}
}

// Curve is one named convergence series of its CurveSet. The zero Curve
// is not usable; obtain curves from a CurveSet.
type Curve struct {
	set  *CurveSet
	name string
}

// AddStats emits one (x, y) point with its solver-cost annotation (e.g.
// SAT decisions/restarts at this point). X is the resource spent, so
// along one run of an attack it increases; stats may be nil and is
// retained by reference, so callers must not mutate it afterwards.
func (c *Curve) AddStats(x int64, y float64, stats map[string]int64) {
	cs := c.set
	cs.mu.Lock()
	journal, tracer := cs.journal, cs.tracer
	cs.mu.Unlock()

	// Emit outside the lock: neither sink calls back into the set. A
	// journal write failure must not abort the attack, so it is dropped.
	if journal != nil {
		sample := CurveSample{Name: c.name, CurvePoint: CurvePoint{X: x, Y: y, Stats: stats}}
		_ = journal.Emit(Event{Phase: "attack.converge", ID: c.name, Curve: &sample})
	}
	if tracer != nil {
		tracer.Counter(c.name, y)
	}
}
