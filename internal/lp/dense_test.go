package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// The dense tableau simplex: O(m·n) memory and work per pivot, kept
// deliberately simple as the independent oracle the revised engine is
// cross-checked against. It has no implicit bounds — Solve expands every
// finite Problem.Upper entry into an x_j ≤ u_j row first.

// Solve runs the two-phase dense tableau simplex. It returns a Solution
// whose Status is Optimal, Infeasible or Unbounded; X and Objective are
// meaningful only for Optimal. The context is checked every ctxEvery
// pivots; cancellation aborts the solve with ctx.Err().
//
// Numerical contract: the solver internally relaxes each inequality by a
// tiny anti-degeneracy perturbation, so the returned point may violate the
// stated constraints by up to ~1e-5 (for problems with up to ~1000 rows);
// equalities are not perturbed.
func Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := validateStructure(p); err != nil {
		return nil, err
	}
	if err := validateData(p); err != nil {
		return nil, err
	}
	p = expandUpper(p)
	mSolves.Add(1)
	sp := mSolveNS.Span()
	defer sp.End()
	t := newTableau(p)
	t.ctx = ctx
	phase1Pivots := 0
	defer func() {
		mPivots.Add(int64(t.pivots))
		mPhase1.Add(int64(phase1Pivots))
	}()
	done := func(s *Solution) *Solution {
		s.Pivots = t.pivots
		s.Phase1Pivots = phase1Pivots
		return s
	}
	// Phase 1: minimize the sum of artificials to find a feasible basis.
	if t.numArt > 0 {
		t.setPhase1Objective()
		if err := t.iterate(true); err != nil {
			return nil, err
		}
		if t.rhs(t.m) < -tol { // phase-1 objective value is -row value
			phase1Pivots = t.pivots
			mInfeasible.Add(1)
			return done(&Solution{Status: Infeasible}), nil
		}
		// Pivots spent driving zero-level artificials out of the basis are
		// part of the feasibility search: snapshot the phase-1 share after
		// them, so they are attributed to phase 1 (not silently lumped into
		// the phase-2 remainder).
		ok := t.driveOutArtificials()
		phase1Pivots = t.pivots
		if !ok {
			// Artificial stuck basic at nonzero level: infeasible.
			mInfeasible.Add(1)
			return done(&Solution{Status: Infeasible}), nil
		}
	}
	// Phase 2: original objective.
	t.setPhase2Objective(p.Objective)
	if err := t.iterate(false); err != nil {
		if errors.Is(err, errUnbounded) {
			mUnbounded.Add(1)
			return done(&Solution{Status: Unbounded}), nil
		}
		return nil, err
	}
	x := make([]float64, p.NumVars)
	for r := 0; r < t.m; r++ {
		if v := t.basis[r]; v < p.NumVars {
			x[v] = t.rhs(r)
		}
	}
	obj := 0.0
	for j, c := range p.Objective {
		obj += c * x[j]
	}
	return done(&Solution{Status: Optimal, X: x, Objective: obj}), nil
}

// expandUpper returns p with each finite upper bound written as an
// explicit x_j ≤ u_j row (p itself when it has none), for the oracles
// that only know x ≥ 0.
func expandUpper(p *Problem) *Problem {
	var rows []Constraint
	for j, u := range p.Upper {
		if math.IsInf(u, 1) {
			continue
		}
		a := make([]float64, p.NumVars)
		a[j] = 1
		rows = append(rows, dense(a, LE, u))
	}
	if rows == nil {
		return p
	}
	q := *p
	q.Upper = nil
	q.Constraints = append(append([]Constraint(nil), p.Constraints...), rows...)
	return &q
}

// tableau is the dense simplex tableau. Rows 0..m-1 are constraints; row m
// is the objective row. Columns 0..total-1 are variables (structural,
// then slack/surplus, then artificial); column total is the RHS.
type tableau struct {
	m, nStruct, numSlack, numArt int
	total                        int // structural + slack + artificial columns
	a                            [][]float64
	basis                        []int
	artStart                     int // first artificial column
	pivots                       int
	ctx                          context.Context
}

func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	// Count slack/surplus and artificial columns.
	numSlack, numArt := 0, 0
	for _, c := range p.Constraints {
		rel, rhs := c.Rel, c.RHS
		if rhs < 0 { // row will be negated
			rel = flip(rel)
		}
		switch rel {
		case LE:
			numSlack++
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}
	t := &tableau{
		m:        m,
		nStruct:  p.NumVars,
		numSlack: numSlack,
		numArt:   numArt,
		total:    p.NumVars + numSlack + numArt,
		basis:    make([]int, m),
	}
	t.artStart = p.NumVars + numSlack
	t.a = make([][]float64, m+1)
	for r := range t.a {
		t.a[r] = make([]float64, t.total+1)
	}
	slackCol := p.NumVars
	artCol := t.artStart
	for r, c := range p.Constraints {
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1
			rel = flip(rel)
		}
		for k, j := range c.Vars {
			t.a[r][j] = sign * c.Coeffs[k]
		}
		// ε-perturbation: strictly increasing tiny offsets keep basic
		// solutions nondegenerate, preventing simplex stalling/cycling.
		// Only the relaxing direction is used (LE rows gain slack, GE rows
		// lose requirement, EQ rows are untouched) so the perturbed
		// feasible region contains the original one.
		delta := perturb * float64(r+1)
		t.a[r][t.total] = sign * c.RHS
		switch rel {
		case LE:
			t.a[r][t.total] += delta
		case GE:
			t.a[r][t.total] -= delta
			if t.a[r][t.total] < 0 {
				t.a[r][t.total] = 0
			}
		}
		switch rel {
		case LE:
			t.a[r][slackCol] = 1
			t.basis[r] = slackCol
			slackCol++
		case GE:
			t.a[r][slackCol] = -1
			slackCol++
			t.a[r][artCol] = 1
			t.basis[r] = artCol
			artCol++
		case EQ:
			t.a[r][artCol] = 1
			t.basis[r] = artCol
			artCol++
		}
	}
	return t
}

func flip(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

func (t *tableau) rhs(r int) float64 { return t.a[r][t.total] }

// setPhase1Objective loads the objective "minimize sum of artificials",
// expressed in terms of the current (artificial) basis.
func (t *tableau) setPhase1Objective() {
	obj := t.a[t.m]
	for j := range obj {
		obj[j] = 0
	}
	for j := t.artStart; j < t.total; j++ {
		obj[j] = 1
	}
	// Zero the reduced costs of basic artificials by subtracting their rows.
	for r := 0; r < t.m; r++ {
		if t.basis[r] >= t.artStart {
			for j := 0; j <= t.total; j++ {
				obj[j] -= t.a[r][j]
			}
		}
	}
}

// setPhase2Objective loads the original objective, priced out against the
// current basis, and blocks artificial columns from re-entering by making
// them prohibitively expensive.
func (t *tableau) setPhase2Objective(c []float64) {
	obj := t.a[t.m]
	for j := range obj {
		obj[j] = 0
	}
	copy(obj, c)
	for r := 0; r < t.m; r++ {
		b := t.basis[r]
		coef := obj[b]
		if coef == 0 {
			continue
		}
		for j := 0; j <= t.total; j++ {
			obj[j] -= coef * t.a[r][j]
		}
	}
	// Artificial columns must never re-enter.
	for j := t.artStart; j < t.total; j++ {
		if !t.isBasic(j) {
			obj[j] = math.Inf(1)
		}
	}
}

func (t *tableau) isBasic(col int) bool {
	for _, b := range t.basis {
		if b == col {
			return true
		}
	}
	return false
}

// iterate runs simplex pivots until optimality. In phase 1 (phase1 true)
// unboundedness cannot occur; in phase 2 it is reported via errUnbounded.
func (t *tableau) iterate(phase1 bool) error {
	maxIter := 20000 + 50*(t.m+t.total)
	for iter := 0; iter < maxIter; iter++ {
		// Cancellation check every ctxEvery pivots: a degenerate
		// multi-second solve must honor the ctx threaded through every
		// harness, not just return eventually.
		if t.pivots%ctxEvery == 0 {
			if err := t.ctx.Err(); err != nil {
				return err
			}
		}
		col := t.chooseEntering()
		if col < 0 {
			return nil // optimal
		}
		row := t.chooseLeaving(col)
		if row < 0 {
			if phase1 {
				return fmt.Errorf("lp: phase-1 unbounded (internal error)")
			}
			return errUnbounded
		}
		t.pivot(row, col)
	}
	return ErrIterationLimit
}

// chooseEntering picks the entering column: most negative reduced cost
// (Dantzig), or the lowest-index negative one after blandAfter pivots.
func (t *tableau) chooseEntering() int {
	obj := t.a[t.m]
	if t.pivots >= blandAfter {
		for j := 0; j < t.total; j++ {
			if obj[j] < -tol && !math.IsInf(obj[j], 1) {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -tol
	for j := 0; j < t.total; j++ {
		if v := obj[j]; v < bestVal && !math.IsInf(v, 1) {
			best, bestVal = j, v
		}
	}
	return best
}

// chooseLeaving runs the ratio test on the entering column; ties break by
// lowest basis index (lexicographic-ish, pairs with Bland). Tie-breaking
// never moves bestRatio upward: a row within tol of the current best used
// to overwrite it with its own (larger) ratio, so a chain of pairwise
// ties could creep the accepted ratio #ties×tol above the true minimum
// and push RHS entries negative past the roundoff clamp.
func (t *tableau) chooseLeaving(col int) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	for r := 0; r < t.m; r++ {
		a := t.a[r][col]
		if a <= tol {
			continue
		}
		ratio := t.rhs(r) / a
		if ratio < 0 {
			// Tiny negative RHS from roundoff: treat as a zero-ratio
			// (degenerate) pivot rather than an improving one.
			ratio = 0
		}
		switch {
		case ratio < bestRatio-tol:
			bestRatio, bestRow = ratio, r
		case ratio < bestRatio+tol:
			// A tie within tol: keep the minimum ratio seen so far and
			// break the tie on basis index only.
			if ratio < bestRatio {
				bestRatio = ratio
			}
			if bestRow < 0 || t.basis[r] < t.basis[bestRow] {
				bestRow = r
			}
		}
	}
	return bestRow
}

func (t *tableau) pivot(row, col int) {
	t.pivots++
	piv := t.a[row][col]
	invPiv := 1 / piv
	rowData := t.a[row]
	for j := 0; j <= t.total; j++ {
		rowData[j] *= invPiv
	}
	for r := 0; r <= t.m; r++ {
		if r == row {
			continue
		}
		factor := t.a[r][col]
		if factor == 0 || math.IsInf(factor, 0) {
			continue
		}
		dst := t.a[r]
		for j := 0; j <= t.total; j++ {
			dst[j] -= factor * rowData[j]
		}
		dst[col] = 0 // enforce exact zero against roundoff
	}
	t.basis[row] = col
}

// driveOutArtificials pivots any artificial variable still basic at level
// zero out of the basis. It returns false if an artificial is basic at a
// nonzero level (the problem is infeasible).
func (t *tableau) driveOutArtificials() bool {
	for r := 0; r < t.m; r++ {
		if t.basis[r] < t.artStart {
			continue
		}
		if math.Abs(t.rhs(r)) > 1e-7 {
			return false
		}
		// Find any non-artificial column with a nonzero entry to pivot in.
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[r][j]) > 1e-7 && !t.isBasic(j) {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		// If no pivot exists the row is redundant (all zeros); leaving the
		// zero-level artificial basic is harmless because phase 2 bars
		// artificials from carrying value.
		_ = pivoted
	}
	return true
}
