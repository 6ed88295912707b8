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
// only through the RHS and the variable bounds — so the Decoder builds
// one lp.Solver for its whole life, which every Decode and stream Push
// reuses. Every solve starts cold, which starts each answered row on e⁺
// where its answer lies below |q|/2 and on e⁻ where it lies above, so a
// reused Decoder returns what a fresh one would, bit for bit. A Decoder
// is not safe for concurrent use; each goroutine builds its own.
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
	solver    *lp.Solver // built once over prob
}

// NewDecoder validates the query set and builds the decoding LP's
// constraint matrix, and its solver, for databases of size n.
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
	d := &Decoder{n: n, queries: queries, objective: objective}
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
	// Each row lists only its nonzeros: a query's members, then its error
	// and absorber columns (L1Slack) or t (Chebyshev). All rows are cut
	// from one index arena and one coefficient arena; each row's slices
	// are capped at its end, so an append to one row cannot overwrite the
	// next.
	nnz := 0
	for _, q := range queries {
		nnz += len(q)
	}
	if objective == L1Slack {
		nnz += 3 * m
	} else {
		nnz = 2 * (nnz + m)
	}
	vars, coeffs := make([]int, 0, nnz), make([]float64, 0, nnz)
	addRow := func(q []int, sign float64, extra []int, extraCoeffs []float64, rel lp.Rel) {
		start := len(vars)
		vars = append(append(vars, q...), extra...)
		for range q {
			coeffs = append(coeffs, sign)
		}
		coeffs = append(coeffs, extraCoeffs...)
		end := len(vars)
		p.Constraints = append(p.Constraints, lp.Constraint{Vars: vars[start:end:end], Coeffs: coeffs[start:end:end], Rel: rel})
	}
	switch objective {
	case L1Slack:
		p.Constraints = make([]lp.Constraint, 0, m)
		for qi, q := range queries {
			// e⁺, e⁻ and f.
			addRow(q, 1, []int{n + qi, n + m + qi, n + 2*m + qi}, []float64{-1, 1, -1}, lp.EQ)
			p.Objective[n+qi], p.Objective[n+m+qi] = 1, 1
		}
	case Chebyshev:
		p.Objective[n] = 1
		p.Constraints = make([]lp.Constraint, 0, 2*m)
		for _, q := range queries {
			// Σ_{i∈q} x_i − t ≤ a  and  −Σ_{i∈q} x_i − t ≤ −a.
			addRow(q, 1, []int{n}, []float64{-1}, lp.LE)
			addRow(q, -1, []int{n}, []float64{-1}, lp.LE)
		}
	}
	var err error
	if d.solver, err = lp.NewSolver(p); err != nil {
		return nil, fmt.Errorf("recon: %w", err)
	}
	return d, nil
}

// Decode fits a fractional database to one answer vector for the
// Decoder's query set and rounds it. It is the batch wrapper over the
// streaming path: one Stream session pushing the whole answer vector at
// once (see StreamDecoder for the incremental, anytime form).
func (d *Decoder) Decode(ctx context.Context, answers []float64) ([]int64, []float64, error) {
	if len(answers) != len(d.queries) {
		return nil, nil, fmt.Errorf("recon: %d answers for %d queries", len(answers), len(d.queries))
	}
	if err := checkFinite(answers, 0); err != nil {
		return nil, nil, err
	}
	mLPDecodes.Add(1)
	return d.Stream().Push(ctx, answers)
}

// checkFinite refuses a NaN or infinite answer, naming the first by its
// query's index in the workload; answers[0] answers query first.
func checkFinite(answers []float64, first int) error {
	for i, a := range answers {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("recon: answer to query %d is %v, want a finite number", first+i, a)
		}
	}
	return nil
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
// constraint matrix and its solver once.
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
