package lp

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestChooseLeavingTieChainDense is the regression test for the ratio-test
// tie-break creep: four rows with ratios {0, 0.9·tol, 1.8·tol, 2.7·tol}
// and descending basis indices {10, 5, 3, 1}. Each adjacent pair ties
// within tol, so the buggy tie-break — which overwrote bestRatio with the
// larger tied ratio — would creep from row 0 all the way to row 3 (ratio
// 2.7·tol above the true minimum). Keeping the minimum ratio, only row 1
// genuinely ties with row 0, and its smaller basis index wins.
func TestChooseLeavingTieChainDense(t *testing.T) {
	ratios := []float64{0, 0.9 * tol, 1.8 * tol, 2.7 * tol}
	basis := []int{10, 5, 3, 1}
	tab := &tableau{m: 4, total: 1, basis: basis}
	tab.a = make([][]float64, 5)
	for r := 0; r < 4; r++ {
		tab.a[r] = []float64{1, ratios[r]} // entering coefficient 1, RHS = ratio
	}
	tab.a[4] = []float64{0, 0} // objective row (unused here)
	if got := tab.chooseLeaving(0); got != 1 {
		t.Errorf("chooseLeaving = row %d (basis %d), want row 1 (basis 5): accepted ratio crept above the true minimum",
			got, basis[got])
	}
}

// TestChooseLeavingTieChainRevised: the same tie chain through the
// revised engine's ratio test (entering from its lower bound, no upper
// bound of its own).
func TestChooseLeavingTieChainRevised(t *testing.T) {
	e := &revised{
		m:     4,
		d:     []float64{1, 1, 1, 1},
		xB:    []float64{0, 0.9 * tol, 1.8 * tol, 2.7 * tol},
		basis: []int{10, 5, 3, 1},
	}
	if got, _, _ := e.chooseLeavingPrimal(1, math.Inf(1)); got != 1 {
		t.Errorf("chooseLeavingPrimal = pos %d, want pos 1 (basis 5)", got)
	}
}

// driveOutProblem ends phase 1 with a zero-level artificial still basic
// (the EQ row -x = 0 prices x at +1 under the phase-1 objective, so
// regular phase-1 pivoting never touches it) whose row has a pivotable
// entry: driving it out takes exactly one pivot after phase-1 optimality.
func driveOutProblem() *Problem {
	return &Problem{
		NumVars:   2,
		Objective: []float64{0, -1},
		Constraints: []Constraint{
			dense([]float64{-1, 0}, EQ, 0),
			dense([]float64{1, 1}, LE, 2),
		},
	}
}

// TestDriveOutPivotAccounting is the regression test for the pivot
// accounting bug: pivots spent driving artificials out of the basis after
// phase-1 optimality must be attributed to phase 1, not silently lumped
// into neither phase.
func TestDriveOutPivotAccounting(t *testing.T) {
	for _, eng := range []struct {
		name  string
		solve func(p *Problem) (*Solution, error)
	}{
		{"dense", func(p *Problem) (*Solution, error) { return Solve(ctx, p) }},
		{"revised", solveFresh},
	} {
		t.Run(eng.name, func(t *testing.T) {
			s, err := eng.solve(driveOutProblem())
			if err != nil {
				t.Fatal(err)
			}
			if s.Status != Optimal {
				t.Fatalf("status = %v", s.Status)
			}
			if math.Abs(s.Objective+2) > 1e-6 {
				t.Errorf("objective = %v, want -2", s.Objective)
			}
			if s.Phase1Pivots < 1 {
				t.Errorf("Phase1Pivots = %d, want >= 1: drive-out pivot not attributed to phase 1", s.Phase1Pivots)
			}
		})
	}
}

// TestSolveCancellation: both engines check their context at their first
// pivot and every ctxEvery after, so a cancelled context stops a solve
// instead of running a degenerate one to the end.
func TestSolveCancellation(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-3, -5},
		Constraints: []Constraint{
			dense([]float64{1, 0}, LE, 4),
			dense([]float64{0, 2}, LE, 12),
			dense([]float64{3, 2}, LE, 18),
		},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(cancelled, p); !errors.Is(err, context.Canceled) {
		t.Errorf("dense: err = %v, want context.Canceled", err)
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("revised: err = %v, want context.Canceled", err)
	}
}
