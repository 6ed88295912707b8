package query

import (
	"context"
	"errors"

	"singlingout/internal/obs"
)

// Metric names recorded by the instrumented oracle. Every attack in the
// repository runs against the Oracle interface, so wrapping the oracle
// measures the attack's query complexity without touching attack code.
// The census pipeline accounts the published statistics it consumes under
// the same MetricQueries name (each published table cell is the answer to
// one counting query), keeping "oracle query count" comparable across
// pipelines.
const (
	// MetricQueries counts subset-sum (and equivalent counting-query)
	// answers consumed by attacks.
	MetricQueries = "query.count"
	// MetricSubsetSize is the histogram of queried subset sizes.
	MetricSubsetSize = "query.subset_size"
	// MetricLatency is the histogram of per-batch answer latencies (ns);
	// single-query call sites make it per-answer.
	MetricLatency = "query.latency_ns"
	// MetricErrors counts failed batches (bad index, suppression, ...).
	MetricErrors = "query.errors"
	// MetricBudgetDenied counts queries refused by an exhausted budget.
	MetricBudgetDenied = "query.budget_denied"
)

// Instrumented wraps an Oracle and records query counts, subset sizes,
// batch latency and budget denials into an obs.Registry. It is safe
// for concurrent use whenever the wrapped oracle is; all accounting is
// atomic, so `go test -race` passes on concurrent workloads.
type Instrumented struct {
	Inner Oracle

	queries      *obs.Counter
	errs         *obs.Counter
	budgetDenied *obs.Counter
	subset       *obs.Histogram
	latency      *obs.Histogram
}

// Instrument wraps o so every Answer batch is accounted in r (nil means
// obs.Default()). Wrapping an already-instrumented oracle returns it
// unchanged to avoid double counting.
func Instrument(o Oracle, r *obs.Registry) *Instrumented {
	if in, ok := o.(*Instrumented); ok {
		return in
	}
	if r == nil {
		r = obs.Default()
	}
	return &Instrumented{
		Inner:        o,
		queries:      r.Counter(MetricQueries),
		errs:         r.Counter(MetricErrors),
		budgetDenied: r.Counter(MetricBudgetDenied),
		subset:       r.Histogram(MetricSubsetSize),
		latency:      r.Histogram(MetricLatency),
	}
}

// Answer implements Oracle, delegating to the wrapped oracle and
// recording the batch. The answers and error pass through unchanged.
func (in *Instrumented) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	in.queries.Add(int64(len(queries)))
	for _, q := range queries {
		in.subset.Observe(int64(len(q)))
	}
	sp := in.latency.Span()
	a, err := in.Inner.Answer(ctx, queries)
	sp.End()
	if err != nil {
		in.errs.Add(1)
		if errors.Is(err, ErrBudgetExhausted) {
			in.budgetDenied.Add(1)
		}
	}
	return a, err
}

// N implements Oracle.
func (in *Instrumented) N() int { return in.Inner.N() }
