package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

var ctx = context.Background()

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	checkFeasible(t, p, s.X)
	return s
}

// checkFeasible verifies 0 ≤ x ≤ Upper and all constraints within the
// documented feasibility slack of the solvers.
func checkFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	const eps = 2e-5
	for j, v := range x {
		if v < -eps {
			t.Fatalf("x[%d] = %v < 0", j, v)
		}
		if p.Upper != nil && v > p.Upper[j]+eps {
			t.Fatalf("x[%d] = %v > upper bound %v", j, v, p.Upper[j])
		}
	}
	for i, c := range p.Constraints {
		lhs := 0.0
		for j, a := range c.Coeffs {
			lhs += a * x[j]
		}
		switch c.Rel {
		case LE:
			if lhs > c.RHS+eps {
				t.Fatalf("constraint %d violated: %v > %v", i, lhs, c.RHS)
			}
		case GE:
			if lhs < c.RHS-eps {
				t.Fatalf("constraint %d violated: %v < %v", i, lhs, c.RHS)
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > eps {
				t.Fatalf("constraint %d violated: %v != %v", i, lhs, c.RHS)
			}
		}
	}
}

func TestTextbookLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), value 36.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-3, -5},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 4},
			{Coeffs: []float64{0, 2}, Rel: LE, RHS: 12},
			{Coeffs: []float64{3, 2}, Rel: LE, RHS: 18},
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.X[0]-2) > 1e-7 || math.Abs(s.X[1]-6) > 1e-7 {
		t.Errorf("x = %v, want (2,6)", s.X)
	}
	if math.Abs(s.Objective+36) > 1e-7 {
		t.Errorf("objective = %v, want -36", s.Objective)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x + y s.t. x + y = 10, x >= 3, y >= 2 → objective 10.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 10},
			{Coeffs: []float64{1, 0}, Rel: GE, RHS: 3},
			{Coeffs: []float64{0, 1}, Rel: GE, RHS: 2},
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective-10) > 1e-7 {
		t.Errorf("objective = %v, want 10", s.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5  (i.e. x >= 5).
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Rel: LE, RHS: -5},
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.X[0]-5) > 1e-7 {
		t.Errorf("x = %v, want 5", s.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: LE, RHS: 1},
			{Coeffs: []float64{1}, Rel: GE, RHS: 2},
		},
	}
	s, err := Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with only x >= 0: unbounded below.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 1}, Rel: LE, RHS: 1},
		},
	}
	s, err := Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classic degenerate corner: redundant constraints meeting at origin.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 0},
			{Coeffs: []float64{2, 0}, Rel: LE, RHS: 0},
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 3},
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective+3) > 1e-7 {
		t.Errorf("objective = %v, want -3", s.Objective)
	}
}

func TestRedundantEquality(t *testing.T) {
	// Duplicate equality rows leave a zero-level artificial basic; the
	// solver must still find the optimum.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 4},
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 4},
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 3},
		},
	}
	s := solveOK(t, p)
	// Optimum pushes x up to its cap: (3,1) with value 5.
	if math.Abs(s.Objective-5) > 1e-7 {
		t.Errorf("objective = %v, want 5", s.Objective)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(ctx, &Problem{NumVars: 0}); err == nil {
		t.Error("zero vars should fail")
	}
	if _, err := Solve(ctx, &Problem{NumVars: 2, Objective: []float64{1}}); err == nil {
		t.Error("objective width mismatch should fail")
	}
	p := &Problem{NumVars: 2, Objective: []float64{1, 1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Rel: LE, RHS: 1}}}
	if _, err := Solve(ctx, p); err == nil {
		t.Error("constraint width mismatch should fail")
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status should render")
	}
}

// TestL1Regression exercises the exact formulation the reconstruction
// attack uses: fit x to noisy subset sums by minimizing total slack.
func TestL1Regression(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, m := 12, 60
	truth := make([]float64, n)
	for i := range truth {
		truth[i] = float64(rng.Intn(2))
	}
	// Variables: x_0..x_{n-1}, e_0..e_{m-1}. Minimize Σe.
	nv := n + m
	obj := make([]float64, nv)
	for j := n; j < nv; j++ {
		obj[j] = 1
	}
	var cons []Constraint
	for k := 0; k < m; k++ {
		row := make([]float64, nv)
		sum := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				row[i] = 1
				sum += truth[i]
			}
		}
		a := sum + (rng.Float64()-0.5)*0.4 // small noise
		// a - Σx <= e  and  Σx - a <= e
		up := make([]float64, nv)
		copy(up, row)
		up[n+k] = -1
		cons = append(cons, Constraint{Coeffs: up, Rel: LE, RHS: a})
		lo := make([]float64, nv)
		for i := 0; i < n; i++ {
			lo[i] = -row[i]
		}
		lo[n+k] = -1
		cons = append(cons, Constraint{Coeffs: lo, Rel: LE, RHS: -a})
	}
	// x_i <= 1.
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		row[i] = 1
		cons = append(cons, Constraint{Coeffs: row, Rel: LE, RHS: 1})
	}
	s := solveOK(t, &Problem{NumVars: nv, Objective: obj, Constraints: cons})
	// Rounding the LP solution should recover most of the truth.
	wrong := 0
	for i := 0; i < n; i++ {
		r := 0.0
		if s.X[i] >= 0.5 {
			r = 1
		}
		if r != truth[i] {
			wrong++
		}
	}
	if wrong > 1 {
		t.Errorf("L1 regression recovered with %d/%d errors", wrong, n)
	}
}

// TestRandomLPsAgainstFeasiblePoints: the solver's optimum must never be
// worse than any sampled feasible point (a cheap but strong correctness
// property on random instances).
func TestRandomLPsAgainstFeasiblePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(5)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = math.Abs(rng.NormFloat64()) // nonneg coeffs keep it bounded
			}
			p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: LE, RHS: 1 + rng.Float64()*5})
		}
		// Make the problem bounded even for negative objective entries.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: LE, RHS: 10})
		}
		s, err := Solve(ctx, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		checkFeasible(t, p, s.X)
		// Sample random feasible points by scaling random directions.
		for probe := 0; probe < 200; probe++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			feasible := true
			for _, c := range p.Constraints {
				lhs := 0.0
				for j, a := range c.Coeffs {
					lhs += a * x[j]
				}
				if lhs > c.RHS {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			val := 0.0
			for j, cj := range p.Objective {
				val += cj * x[j]
			}
			if val < s.Objective-1e-6 {
				t.Fatalf("trial %d: feasible point beats 'optimum': %v < %v", trial, val, s.Objective)
			}
		}
	}
}

func TestZeroConstraintLP(t *testing.T) {
	// min x with no constraints: optimum at x = 0.
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	s := solveOK(t, p)
	if s.X[0] != 0 {
		t.Errorf("x = %v, want 0", s.X[0])
	}
}

// TestSolutionPivotsAndProgress checks the solver reports its pivot counts
// and drives the Progress hook through both phases.
func TestSolutionPivotsAndProgress(t *testing.T) {
	// A problem with GE rows forces a genuine phase 1.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: GE, RHS: 1},
			{Coeffs: []float64{0, 1}, Rel: GE, RHS: 2},
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 10},
		},
		ProgressEvery: 1,
	}
	var events []Progress
	p.Progress = func(pr Progress) { events = append(events, pr) }
	s := solveOK(t, p)
	if s.Pivots <= 0 {
		t.Errorf("Pivots = %d, want positive", s.Pivots)
	}
	if s.Phase1Pivots <= 0 || s.Phase1Pivots > s.Pivots {
		t.Errorf("Phase1Pivots = %d out of range (total %d)", s.Phase1Pivots, s.Pivots)
	}
	if len(events) == 0 {
		t.Fatal("Progress hook never invoked")
	}
	sawPhase := map[int]bool{}
	lastPivots := -1
	for _, e := range events {
		sawPhase[e.Phase] = true
		if e.Pivots < lastPivots {
			t.Errorf("pivot count went backwards: %v", events)
			break
		}
		lastPivots = e.Pivots
	}
	if !sawPhase[1] || !sawPhase[2] {
		t.Errorf("expected progress from both phases, saw %v", sawPhase)
	}
}
