package pso

import (
	"errors"
	"fmt"
	"math/rand"

	"singlingout/internal/dataset"
	"singlingout/internal/dp"
	"singlingout/internal/kanon"
	"singlingout/internal/obs"
	"singlingout/internal/query"
)

// Adaptive predicate-count queries are counting queries like everything
// else the attacks consume, so CountOracle accounts them under
// query.MetricQueries as well as its own name.
var (
	mCountQueries  = obs.Default().Counter("pso.count_queries")
	mOracleQueries = obs.Default().Counter(query.MetricQueries)
	mQueryDenied   = obs.Default().Counter(query.MetricBudgetDenied)
)

// Mechanism is the anonymization mechanism M: X^n → Y of Section 2.2. The
// released value is intentionally untyped: attacks type-switch on the
// release shapes they understand.
type Mechanism interface {
	// Release computes the published output on the dataset.
	Release(rng *rand.Rand, d *dataset.Dataset) (any, error)
	// Describe renders the mechanism for reports.
	Describe() string
}

// Count is the exact counting mechanism M#q of Theorem 2.5: it releases
// Σ_i q(x_i) for a fixed predicate q.
type Count struct {
	Q Predicate
}

// Release implements Mechanism.
func (c Count) Release(rng *rand.Rand, d *dataset.Dataset) (any, error) {
	return IsolationCount(c.Q, d), nil
}

// Describe implements Mechanism.
func (c Count) Describe() string { return fmt.Sprintf("M#q exact count of [%s]", c.Q.Describe()) }

// PostProcess wraps a mechanism with an arbitrary data-independent
// post-processing function — the setting of Theorem 2.6.
type PostProcess struct {
	Inner Mechanism
	F     func(any) any
	Name  string
}

// Release implements Mechanism.
func (p PostProcess) Release(rng *rand.Rand, d *dataset.Dataset) (any, error) {
	y, err := p.Inner.Release(rng, d)
	if err != nil {
		return nil, err
	}
	return p.F(y), nil
}

// Describe implements Mechanism.
func (p PostProcess) Describe() string {
	return fmt.Sprintf("%s ∘ (%s)", p.Name, p.Inner.Describe())
}

// ErrQueryLimit is returned by CountOracle.Count once the query allowance
// is spent.
var ErrQueryLimit = errors.New("pso: count-query limit reached")

// CountOracle is the released value of InteractiveCounts: a handle the
// attacker may use to issue up to Limit adaptive predicate-count queries.
// It models the composed mechanism (M#q1(x), ..., M#qℓ(x)) of Theorem 2.8
// with the query list chosen adaptively.
type CountOracle struct {
	d     *dataset.Dataset
	rng   *rand.Rand
	noise func(rng *rand.Rand, trueCount int) float64
	limit int
	used  int
	memo  hashMemo
}

// Count answers one predicate-count query.
func (o *CountOracle) Count(p Predicate) (float64, error) {
	if o.used >= o.limit {
		mQueryDenied.Add(1)
		return 0, ErrQueryLimit
	}
	o.used++
	mCountQueries.Add(1)
	mOracleQueries.Add(1)
	c := o.memo.count(p, o.d)
	if o.noise == nil {
		return float64(c), nil
	}
	return o.noise(o.rng, c), nil
}

// N returns the dataset size.
func (o *CountOracle) N() int { return o.d.Len() }

// InteractiveCounts is the composition of ℓ = Limit count mechanisms
// (Theorem 2.8). With Eps = 0 each count is exact (each individual count
// mechanism is PSO-secure by Theorem 2.5); with Eps > 0 every answer is
// Laplace-noised with per-query privacy loss Eps (Theorem 2.9's regime
// under composition).
type InteractiveCounts struct {
	Limit int
	Eps   float64 // 0 = exact counts
}

// Release implements Mechanism.
func (m InteractiveCounts) Release(rng *rand.Rand, d *dataset.Dataset) (any, error) {
	if m.Limit <= 0 {
		return nil, fmt.Errorf("pso: InteractiveCounts needs a positive limit")
	}
	o := &CountOracle{d: d, rng: rng, limit: m.Limit}
	if m.Eps > 0 {
		eps := m.Eps
		o.noise = func(rng *rand.Rand, c int) float64 {
			return dp.LaplaceCount(rng, int64(c), eps)
		}
	}
	return o, nil
}

// Describe implements Mechanism.
func (m InteractiveCounts) Describe() string {
	if m.Eps > 0 {
		return fmt.Sprintf("%d adaptive ε=%g Laplace counts", m.Limit, m.Eps)
	}
	return fmt.Sprintf("%d adaptive exact counts", m.Limit)
}

// Anonymizer selects which k-anonymizer a KAnonymity mechanism runs.
type Anonymizer int

// KAnonymity anonymizer algorithms.
const (
	// UseMondrian runs Mondrian multidimensional partitioning.
	UseMondrian Anonymizer = iota
	// UseFullDomain runs Datafly-style full-domain generalization; the
	// mechanism's Hierarchies must be set.
	UseFullDomain
)

// KAnonymity releases a k-anonymized version of the dataset (the
// technology interrogated by Theorem 2.10).
type KAnonymity struct {
	QI        []int
	K         int
	Algorithm Anonymizer
	Mondrian  kanon.MondrianOptions
	// Hierarchies is required for UseFullDomain.
	Hierarchies map[int]*dataset.IntRangeHierarchy
	// MaxSuppress is the full-domain suppression allowance.
	MaxSuppress int
}

// Release implements Mechanism; the released value is *kanon.Release.
func (m KAnonymity) Release(rng *rand.Rand, d *dataset.Dataset) (any, error) {
	switch m.Algorithm {
	case UseMondrian:
		return kanon.Mondrian(d, m.QI, m.K, m.Mondrian)
	case UseFullDomain:
		rel, _, err := kanon.FullDomain(d, m.QI, m.K, kanon.FullDomainOptions{
			Hierarchies: m.Hierarchies,
			MaxSuppress: m.MaxSuppress,
		})
		return rel, err
	default:
		return nil, fmt.Errorf("pso: unknown anonymizer %d", m.Algorithm)
	}
}

// Describe implements Mechanism.
func (m KAnonymity) Describe() string {
	alg := "Mondrian"
	if m.Algorithm == UseFullDomain {
		alg = "full-domain"
	}
	return fmt.Sprintf("%d-anonymity (%s) over %d QIs", m.K, alg, len(m.QI))
}
