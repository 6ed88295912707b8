// Package recon implements the Dinur–Nissim database reconstruction
// attacks of Theorem 1.1: the exhaustive-search attack that works against
// any mechanism with o(n) error given enough subset queries, and the
// polynomial-time linear-programming decoding attack that defeats error up
// to o(√n). Both are written against the query.Oracle interface, so the
// same attack code runs against exact, bounded-error, Laplace-noised and
// budgeted mechanisms.
package recon

import (
	"context"
	"fmt"
	"math"

	"singlingout/internal/lp"
	"singlingout/internal/obs"
	"singlingout/internal/query"
)

// Metrics recorded into obs.Default() by the attack harnesses.
// recon.exhaustive_candidates counts candidate databases tested against the
// collected answers — the 2^n cost of the Theorem 1.1(i) attack.
var (
	mExhaustive = obs.Default().Counter("recon.exhaustive_runs")
	mCandidates = obs.Default().Counter("recon.exhaustive_candidates")
	mLPDecodes  = obs.Default().Counter("recon.lp_decodes")
)

// HammingError returns the fraction of positions where the reconstruction
// disagrees with the truth. A mechanism is "blatantly non-private" when an
// attacker achieves error below 5% (the paper's figure).
func HammingError(truth, recon []int64) float64 {
	if len(truth) != len(recon) {
		panic("recon: HammingError on mismatched lengths")
	}
	if len(truth) == 0 {
		return 0
	}
	wrong := 0
	for i := range truth {
		if truth[i] != recon[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(truth))
}

// Exhaustive mounts the Theorem 1.1(i)-style attack: it submits the whole
// workload as one oracle batch and searches all 2^n candidate databases
// for one consistent with every answer to within alpha, returning the
// first such candidate. It requires n <= 24.
//
// The theorem's guarantee: if the oracle's error is at most alpha on every
// query, the true database is itself consistent, and any consistent
// candidate can disagree with the truth only on O(alpha) entries.
func Exhaustive(ctx context.Context, o query.Oracle, queries [][]int, alpha float64) ([]int64, error) {
	n := o.N()
	if n > 24 {
		return nil, fmt.Errorf("recon: exhaustive attack limited to n <= 24, got %d", n)
	}
	masks := make([]uint32, len(queries))
	for qi, q := range queries {
		// The bitmask candidate evaluation below collapses a repeated index
		// to one membership bit, while an oracle summing naively would count
		// it twice — so the attacker enforces the same well-formedness
		// contract the oracle does, and both sides reject such a query
		// instead of silently disagreeing about what it means.
		if err := query.ValidateQuery(n, q); err != nil {
			return nil, fmt.Errorf("recon: %w", err)
		}
		var m uint32
		for _, i := range q {
			m |= 1 << uint(i)
		}
		masks[qi] = m
	}
	answers, err := o.Answer(ctx, queries)
	if err != nil {
		return nil, fmt.Errorf("recon: oracle failed: %w", err)
	}
	if len(answers) != len(queries) {
		return nil, fmt.Errorf("recon: oracle returned %d answers for %d queries", len(answers), len(queries))
	}
	mExhaustive.Add(1)
	tested := int64(0)
	defer func() { mCandidates.Add(tested) }()
	for cand := uint32(0); cand < 1<<uint(n); cand++ {
		tested++
		ok := true
		for qi := range masks {
			s := float64(popcount32(cand & masks[qi]))
			if math.Abs(s-answers[qi]) > alpha+1e-9 {
				ok = false
				break
			}
		}
		if ok {
			x := make([]int64, n)
			for i := 0; i < n; i++ {
				if cand&(1<<uint(i)) != 0 {
					x[i] = 1
				}
			}
			return x, nil
		}
	}
	return nil, fmt.Errorf("recon: no candidate consistent within alpha = %v", alpha)
}

func popcount32(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// LPObjective selects the LP-decoding objective (an ablation axis).
type LPObjective int

// LP decoding objectives.
const (
	// L1Slack minimizes the sum of per-query violations (the formulation
	// of Dwork–McSherry–Talwar LP decoding).
	L1Slack LPObjective = iota
	// Chebyshev minimizes the single largest violation.
	Chebyshev
)

// Decoder is the batched LP-decoding entry point: it fixes a query set
// once and decodes any number of answer vectors against it. The decoding
// LP's constraint matrix depends only on the queries — the answers enter
// only through the RHS and the variable bounds — so the Decoder keeps the
// revised simplex basis of its previous solve. The next solve
// warm-starts from it unless every query row's answer state (RHS and
// absorber bound) has changed since: a fresh answer vector moves every
// row, and then a cold start is cheaper than the dual simplex walk from
// another vector's optimum. So a verbatim replay and every streaming push
// after a session's first warm-start, and a decode of new answers solves
// cold. A Decoder is not safe for concurrent use; each goroutine builds
// its own.
//
// The L1Slack LP has one equality row per query q over x ∈ [0,1]^n:
//
//	Σ_{i∈q} x_i − e⁺_q + e⁻_q − f_q = a_q,   minimize Σ_q (e⁺_q + e⁻_q)
//
// with e± ≥ 0 the over- and under-shoot, and f_q a zero-cost absorber
// fixed at 0 once q is answered (see StreamDecoder for why it exists).
// The basis therefore has m rows, and e⁺_q/e⁻_q cover every row of the
// cold-start crash, so no decode runs phase 1. Chebyshev shares one t
// across all rows, so it keeps the two-row form
// |Σ_{i∈q} x_i − a_q| ≤ t, again with 0 ≤ x ≤ 1 as bounds.
type Decoder struct {
	n         int
	queries   [][]int
	objective LPObjective
	prob      lp.Problem // RHS and Upper rewritten per decode
	basis     *lp.Basis
	solved    [][2]float64 // per query, its rowState when basis was found
}

// NewDecoder validates the query set and precomputes the decoding LP's
// constraint matrix for databases of size n.
func NewDecoder(n int, queries [][]int, objective LPObjective) (*Decoder, error) {
	m := len(queries)
	if m == 0 {
		return nil, fmt.Errorf("recon: no queries")
	}
	for _, q := range queries {
		// Same well-formedness contract as Exhaustive: the constraint rows
		// below assign one coefficient per index, collapsing duplicates an
		// oracle might have counted twice.
		if err := query.ValidateQuery(n, q); err != nil {
			return nil, fmt.Errorf("recon: %w", err)
		}
	}
	var nv int
	switch objective {
	case L1Slack:
		nv = n + 3*m // x, then e⁺, e⁻ and f, one of each per query
	case Chebyshev:
		nv = n + 1 // x, then t
	default:
		return nil, fmt.Errorf("recon: unknown objective %d", objective)
	}
	d := &Decoder{n: n, queries: queries, objective: objective, solved: make([][2]float64, m)}
	p := &d.prob
	p.NumVars = nv
	p.Objective = make([]float64, nv)
	p.Upper = make([]float64, nv)
	for j := range p.Upper {
		p.Upper[j] = 1
		if j >= n {
			p.Upper[j] = math.Inf(1)
		}
	}
	switch objective {
	case L1Slack:
		p.Constraints = make([]lp.Constraint, m)
		for qi, q := range queries {
			row := make([]float64, nv)
			for _, i := range q {
				row[i] = 1
			}
			row[n+qi] = -1     // e⁺
			row[n+m+qi] = 1    // e⁻
			row[n+2*m+qi] = -1 // f
			p.Constraints[qi] = lp.Constraint{Coeffs: row, Rel: lp.EQ}
			p.Objective[n+qi], p.Objective[n+m+qi] = 1, 1
		}
	case Chebyshev:
		p.Objective[n] = 1
		p.Constraints = make([]lp.Constraint, 0, 2*m)
		for _, q := range queries {
			// Σ_{i∈q} x_i − t ≤ a  and  −Σ_{i∈q} x_i − t ≤ −a.
			up := make([]float64, nv)
			lo := make([]float64, nv)
			for _, i := range q {
				up[i] = 1
				lo[i] = -1
			}
			up[n], lo[n] = -1, -1
			p.Constraints = append(p.Constraints,
				lp.Constraint{Coeffs: up, Rel: lp.LE},
				lp.Constraint{Coeffs: lo, Rel: lp.LE},
			)
		}
	}
	return d, nil
}

// Decode fits a fractional database to one answer vector for the
// Decoder's query set and rounds it. It warm-starts from the previous
// solve's basis only when that solve was given the same answer for at
// least one query, and solves cold otherwise (see Decoder). It is the
// batch wrapper over the streaming path: one Stream session pushing the
// whole answer vector at once (see StreamDecoder for the incremental,
// anytime form).
func (d *Decoder) Decode(ctx context.Context, answers []float64) ([]int64, []float64, error) {
	if len(answers) != len(d.queries) {
		return nil, nil, fmt.Errorf("recon: %d answers for %d queries", len(answers), len(d.queries))
	}
	mLPDecodes.Add(1)
	return d.Stream().Push(ctx, answers)
}

// DecodeOracle asks the oracle the Decoder's query set as one batch and
// decodes the answers.
func (d *Decoder) DecodeOracle(ctx context.Context, o query.Oracle) ([]int64, []float64, error) {
	if o.N() != d.n {
		return nil, nil, fmt.Errorf("recon: oracle has n = %d, decoder built for %d", o.N(), d.n)
	}
	answers, err := o.Answer(ctx, d.queries)
	if err != nil {
		return nil, nil, fmt.Errorf("recon: oracle failed: %w", err)
	}
	return d.Decode(ctx, answers)
}

// LPDecode mounts the polynomial-time attack of Theorem 1.1(ii): it asks
// the oracle the given queries as one batch and solves a linear program
// fitting a fractional database x ∈ [0,1]^n to the answers, then rounds.
// It returns the rounded reconstruction and the fractional LP solution.
// For repeated decodes over one query set, use a Decoder — it builds the
// constraint matrix once and reuses the simplex basis where that pays.
func LPDecode(ctx context.Context, o query.Oracle, queries [][]int, objective LPObjective) ([]int64, []float64, error) {
	d, err := NewDecoder(o.N(), queries, objective)
	if err != nil {
		return nil, nil, err
	}
	return d.DecodeOracle(ctx, o)
}

// Round converts a fractional database to binary by thresholding at 1/2.
func Round(frac []float64) []int64 {
	out := make([]int64, len(frac))
	for i, v := range frac {
		if v >= 0.5 {
			out[i] = 1
		}
	}
	return out
}
