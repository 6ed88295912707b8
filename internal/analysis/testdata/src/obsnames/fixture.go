// Fixture for the obsnames analyzer: metric names must be lowercase
// dotted string literals or Metric* constants so the Prometheus renderer
// and the work-counter gate key on stable names.
package metrics

import "fmt"

// Metric constants are checked at their definition site...
const (
	MetricGood     = "qserver.batch_queries"
	MetricBad      = "Qserver.BatchQueries" // want `metric constant MetricBad value "Qserver\.BatchQueries" is not lowercase dotted`
	MetricRetries  = "remote.retries"       // client-side retry counter family
	MetricBackoff  = "remote.backoff_ns"
	MetricBadUnits = "remote.backoff-NS" // want `metric constant MetricBadUnits value "remote\.backoff-NS" is not lowercase dotted`
)

// registry stands in for *obs.Registry; the analyzer is syntactic and
// keys on the constructor method names.
type registry struct{}

func (registry) Counter(name string) int   { return len(name) }
func (registry) Gauge(name string) int     { return len(name) }
func (registry) Histogram(name string) int { return len(name) }

// curveSet stands in for *obs.CurveSet, whose Curve handle emits each
// point as an attack.converge journal event named by the curve.
type curveSet struct{}

func (curveSet) Curve(name string) int { return len(name) }

// Event mirrors obs.Event.
type Event struct{ Phase string }

func register(r registry, curves curveSet, shard int) {
	r.Counter("census.blocks_solved")
	r.Gauge(MetricGood)
	r.Counter("census.BlocksSolved")               // want `obs Counter name "census\.BlocksSolved" is not lowercase dotted`
	r.Histogram(fmt.Sprintf("shard%d.lat", shard)) // want `obs Histogram name must be a constant`
	r.Counter("obs.journal_dropped")
	r.Counter("converge.queries")
	curves.Curve("recon.lp.accuracy")
	curves.Curve("census.exact_fraction")
	curves.Curve("Recon.LP.Accuracy")                       // want `obs Curve name "Recon\.LP\.Accuracy" is not lowercase dotted`
	curves.Curve(fmt.Sprintf("recon.lp.accuracy%d", shard)) // want `obs Curve name must be a constant`
	_ = Event{Phase: "run_start"}
	_ = Event{Phase: "budget.spend"} // dotted ledger phases are in-convention
	_ = Event{Phase: "query_retry"}
	_ = Event{Phase: "attack.converge"}
	_ = Event{Phase: "Run Start"}   // want `obs\.Event Phase "Run Start" is not lowercase dotted`
	_ = Event{Phase: "budget.Deny"} // want `obs\.Event Phase "budget\.Deny" is not lowercase dotted`
}

// histogram is a domain function that happens to share a constructor
// name; its arity keeps it out of scope.
func histogram(rng int, counts []int64, eps float64) []int64 { return counts }

type mech struct{}

func (mech) Histogram(rng int, counts []int64, eps float64) []int64 { return counts }

func release(m mech) []int64 {
	return m.Histogram(1, []int64{2}, 0.5) // three args: not an obs constructor
}
