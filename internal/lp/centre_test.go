package lp

import (
	"math"
	"slices"
	"testing"

	"singlingout/internal/par"
)

// TestCentreStart is the contract of the cold start's centred basis, on
// an L1 fit over x ∈ [0,1]^4 in the decoder's equality form, with
// hand-picked answers, plus one LE row. Its value at x = ½ is half the
// query's size, the row's centre value.
//   - A row whose answer lies below its centre value starts on e⁺, and
//     one above it on e⁻ (the crash puts every row with a positive
//     answer on e⁻). A row answered at its centre value keeps the
//     crash's pick, which fits there too.
//   - An open row keeps its zero-cost absorber f, and the LE row its
//     slack, the one zero-cost singleton each has, even where the slack
//     does not fit at the centre.
//   - The cold solve from there matches the dense oracle.
//
// A Chebyshev fit needs artificials, so its cold solve crashes as it did
// before the centred start: the same pivots, phase 1 included.
func TestCentreStart(t *testing.T) {
	qRows := [][]float64{
		{1, 1, 1, 1}, // centre 2, answer 1: e⁺
		{1, 1, 0, 0}, // centre 1, answer 2: e⁻
		{0, 1, 1, 1}, // centre 1.5, answer 1: e⁺
		{0, 0, 1, 1}, // centre 1, answer 1.5: e⁻
		{1, 0, 0, 1}, // centre 1, answer 1: the crash's e⁻
		{1, 1, 1, 0}, // open: f
	}
	answers := []float64{1, 2, 1, 1.5, 1, 3}
	open := []bool{false, false, false, false, false, true}
	p := l1EqualityProblem(qRows, answers, open)
	p.Constraints = append(p.Constraints, dense([]float64{1, 1, 1}, LE, 1)) // centre −0.5
	n, m := 4, len(qRows)
	ePlus := func(k int) int { return n + k }
	eMinus := func(k int) int { return n + m + k }
	f := func(k int) int { return n + 2*m + k }
	slack := p.NumVars + m // the LE row's
	crashed := []int{eMinus(0), eMinus(1), eMinus(2), eMinus(3), eMinus(4), f(5), slack}
	centred := []int{ePlus(0), eMinus(1), ePlus(2), eMinus(3), eMinus(4), f(5), slack}

	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	e := &s.e
	e.reset(ctx)
	e.setPhase2Cost()
	if numArt := e.crash(); numArt != 0 {
		t.Fatalf("the crash left %d rows to artificials, want none", numArt)
	}
	if !slices.Equal(e.basis, crashed) {
		t.Fatalf("crash basis %v, want %v", e.basis, crashed)
	}
	if !e.centre() {
		t.Fatal("centre reported no row moved")
	}
	if !slices.Equal(e.basis, centred) {
		t.Errorf("centred basis %v, want %v", e.basis, centred)
	}
	for j, pos := range e.posOf {
		if want := slices.Index(e.basis, j); pos != want {
			t.Errorf("posOf[%d] = %d, want %d", j, pos, want)
		}
	}
	_, sol := revisedOK(t, p)
	agreeDense(t, "centred L1 fit", p, sol)
	if sol.Phase1Pivots != 0 {
		t.Errorf("the L1 fit ran %d phase-1 pivots", sol.Phase1Pivots)
	}

	// Exact answers of x = (1, 0, 0). The centred start prices x at that
	// point, where every row's error is 0, so the cold solve takes no
	// pivot; the crash's start (row 0 on e⁻) prices x at (1, 1, 0).
	qRows = [][]float64{{1, 1, 1}, {1, 0, 0}, {0, 1, 1}, {1, 1, 0}}
	p = l1EqualityProblem(qRows, []float64{1, 1, 0, 1}, make([]bool, len(qRows)))
	if _, sol = revisedOK(t, p); sol.Pivots != 0 || sol.Objective != 0 {
		t.Errorf("exact fit: %d pivots to objective %v, want 0 pivots to 0", sol.Pivots, sol.Objective)
	}

	qRows, answers = subsetRows(par.RNG(7, 0), 12, 36)
	p = chebyshevProblem(qRows, answers)
	s, err = NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	e = &s.e
	e.reset(ctx)
	e.setPhase2Cost()
	if numArt := e.crash(); numArt != len(qRows) {
		t.Fatalf("Chebyshev crash: %d artificials, want one a query (%d)", numArt, len(qRows))
	}
	_, sol = revisedOK(t, p)
	agreeDense(t, "Chebyshev fit", p, sol)
	if sol.Pivots != 70 || sol.Phase1Pivots != 63 {
		t.Errorf("Chebyshev fit: %d pivots, %d in phase 1; the crash's start took 70 and 63", sol.Pivots, sol.Phase1Pivots)
	}
}

// TestCentreFallsBackToCrash: a centred basis with no dual-feasible
// bound placement goes back to the crash's basis. This LP, drawn by
// TestSolverEquivalenceProperty's trial 185, centres row 0 onto e⁺
// (x_3), where the unbounded x_2 prices at −1.01. The centred basis is
// primal infeasible, and primal phase 2 run from it, with its basic
// values clamped into their bounds, ended at objective 3.0378 against
// the oracle's 2.6079.
func TestCentreFallsBackToCrash(t *testing.T) {
	inf := math.Inf(1)
	p := &Problem{
		NumVars:   7,
		Objective: []float64{-0.04031166374155201, 0.45365274476229644, 0.9198976591773764, 1, 1, 1, 1},
		Upper:     []float64{inf, 2.1985510409079203, inf, inf, inf, inf, inf},
		Constraints: []Constraint{
			dense([]float64{0.7088327464321492, 0.4266536814056717, 0.31988837179914054, -1, 1, 0, 0}, EQ, 0.4298176433702581),
			dense([]float64{-0.18890951640018905, -0.10737164128665216, 2.2523933710664577, 0, 0, -1, 1}, EQ, 5.518889167630003),
			dense([]float64{1, 0, 0, 0, 0, 0, 0}, LE, 3),
			dense([]float64{0, 1, 0, 0, 0, 0, 0}, LE, 3),
			dense([]float64{0, 0, 1, 0, 0, 0, 0}, LE, 3),
		},
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	e := &s.e
	e.reset(ctx)
	e.setPhase2Cost()
	if numArt := e.crash(); numArt != 0 || !e.centre() || e.basis[0] != 3 {
		t.Fatalf("the start does not centre row 0 onto x_3: basis %v", e.basis)
	}
	_, sol := revisedOK(t, p)
	agreeDense(t, "trial 185", p, sol)
}
