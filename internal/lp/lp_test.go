package lp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

var ctx = context.Background()

// dense states a constraint by its full coefficient row: the sparse row
// lists the nonzero entries.
func dense(a []float64, rel Rel, rhs float64) Constraint {
	c := Constraint{Rel: rel, RHS: rhs}
	for j, v := range a {
		if v != 0 {
			c.Vars = append(c.Vars, j)
			c.Coeffs = append(c.Coeffs, v)
		}
	}
	return c
}

// lhs is c's left-hand side at x.
func lhs(c Constraint, x []float64) float64 {
	s := 0.0
	for k, j := range c.Vars {
		s += c.Coeffs[k] * x[j]
	}
	return s
}

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
		lhs := lhs(c, x)
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
			dense([]float64{1, 0}, LE, 4),
			dense([]float64{0, 2}, LE, 12),
			dense([]float64{3, 2}, LE, 18),
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
			dense([]float64{1, 1}, EQ, 10),
			dense([]float64{1, 0}, GE, 3),
			dense([]float64{0, 1}, GE, 2),
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
			dense([]float64{-1}, LE, -5),
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
			dense([]float64{1}, LE, 1),
			dense([]float64{1}, GE, 2),
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
			dense([]float64{0, 1}, LE, 1),
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
			dense([]float64{1, 0}, LE, 0),
			dense([]float64{2, 0}, LE, 0),
			dense([]float64{1, 1}, LE, 3),
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
			dense([]float64{1, 1}, EQ, 4),
			dense([]float64{1, 1}, EQ, 4),
			dense([]float64{1, 0}, LE, 3),
		},
	}
	s := solveOK(t, p)
	// Optimum pushes x up to its cap: (3,1) with value 5.
	if math.Abs(s.Objective-5) > 1e-7 {
		t.Errorf("objective = %v, want 5", s.Objective)
	}
}

// TestValidation: each malformed Problem is refused by both engines
// before any solve, with an error naming what is wrong.
func TestValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	two := func(cs ...Constraint) Problem {
		return Problem{NumVars: 2, Objective: []float64{1, 1}, Constraints: cs}
	}
	row := func(vars []int, coeffs []float64) Constraint {
		return Constraint{Vars: vars, Coeffs: coeffs, Rel: LE, RHS: 1}
	}
	cases := []struct {
		name string
		p    Problem
		want string
	}{
		{"no variables", Problem{NumVars: 0}, "NumVars = 0"},
		{"objective length", Problem{NumVars: 2, Objective: []float64{1}}, "objective length 1"},
		{"NaN objective", Problem{NumVars: 2, Objective: []float64{1, nan}}, "objective entry 1 = NaN"},
		{"infinite objective", Problem{NumVars: 2, Objective: []float64{inf, 1}}, "objective entry 0 = +Inf"},
		{"index and coefficient lengths", two(row([]int{0, 1}, []float64{1})), "constraint 0 lists 2 indices for 1 coefficients"},
		{"negative index", two(row([]int{-1}, []float64{1})), "constraint 0 index -1 outside [0, 2)"},
		{"index past NumVars", two(row(nil, nil), row([]int{2}, []float64{1})), "constraint 1 index 2 outside [0, 2)"},
		{"repeated index", two(row([]int{1, 0, 1}, []float64{1, 1, 2})), "constraint 0 lists variable 1 twice"},
		{"NaN coefficient", two(row([]int{0}, []float64{nan})), "coefficient of variable 0 = NaN"},
		{"infinite coefficient", two(row([]int{1}, []float64{-inf})), "coefficient of variable 1 = -Inf"},
		{"unknown relation", two(Constraint{Rel: EQ + 1}), "constraint 0 relation 3"},
		{"NaN RHS", two(Constraint{Vars: []int{0}, Coeffs: []float64{1}, Rel: EQ, RHS: nan}), "constraint 0 RHS = NaN"},
		{"infinite RHS", two(Constraint{Rel: GE, RHS: -inf}), "constraint 0 RHS = -Inf"},
	}
	engines := []struct {
		name  string
		solve func(*Problem) (*Solution, error)
	}{
		{"Solver", solveFresh},
		{"Solve", func(p *Problem) (*Solution, error) { return Solve(ctx, p) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range engines {
				sol, err := eng.solve(&tc.p)
				if err == nil {
					t.Fatalf("%s: no error, solution %+v", eng.name, sol)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %q, want it to contain %q", eng.name, err, tc.want)
				}
			}
		})
	}
	// Two rows may list the same variable.
	ok := two(row([]int{0, 1}, []float64{1, 1}), row([]int{1}, []float64{1}))
	if _, err := solveFresh(&ok); err != nil {
		t.Errorf("variable shared by two rows: %v", err)
	}
}

// TestSparseRowOrderAndZeros: a row's entries may come in any order and
// may include zeros; the engine sees the same matrix either way, so the
// solve takes the same pivots to the same bits.
func TestSparseRowOrderAndZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := boxedProblem(rng, true)
		q := *p
		q.Constraints = make([]Constraint, len(p.Constraints))
		for i, c := range p.Constraints {
			c.Vars = append([]int{}, c.Vars...)
			c.Coeffs = append([]float64{}, c.Coeffs...)
			for j := 0; j < p.NumVars; j++ {
				if !slices.Contains(c.Vars, j) {
					c.Vars = append(c.Vars, j)
					c.Coeffs = append(c.Coeffs, 0)
				}
			}
			rng.Shuffle(len(c.Vars), func(a, b int) {
				c.Vars[a], c.Vars[b] = c.Vars[b], c.Vars[a]
				c.Coeffs[a], c.Coeffs[b] = c.Coeffs[b], c.Coeffs[a]
			})
			q.Constraints[i] = c
		}
		a, err := solveFresh(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := solveFresh(&q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != b.Status || a.Pivots != b.Pivots || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
			t.Fatalf("trial %d: clean %v in %d pivots (objective %v), scrambled %v in %d (%v)",
				trial, a.Status, a.Pivots, a.Objective, b.Status, b.Pivots, b.Objective)
		}
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
		cons = append(cons, dense(up, LE, a))
		lo := make([]float64, nv)
		for i := 0; i < n; i++ {
			lo[i] = -row[i]
		}
		lo[n+k] = -1
		cons = append(cons, dense(lo, LE, -a))
	}
	// x_i <= 1.
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		row[i] = 1
		cons = append(cons, dense(row, LE, 1))
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
			p.Constraints = append(p.Constraints, dense(row, LE, 1+rng.Float64()*5))
		}
		// Make the problem bounded even for negative objective entries.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.Constraints = append(p.Constraints, dense(row, LE, 10))
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
				if lhs(c, x) > c.RHS {
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

// TestSolutionPivots checks that both engines report their pivot
// counts and the phase-1 share of them.
func TestSolutionPivots(t *testing.T) {
	// A problem with GE rows forces a genuine phase 1.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			dense([]float64{1, 0}, GE, 1),
			dense([]float64{0, 1}, GE, 2),
			dense([]float64{1, 1}, LE, 10),
		},
	}
	for _, eng := range []struct {
		name  string
		solve func(*Problem) (*Solution, error)
	}{
		{"dense", func(p *Problem) (*Solution, error) { return Solve(ctx, p) }},
		{"revised", solveFresh},
	} {
		s, err := eng.solve(p)
		if err != nil || s.Status != Optimal {
			t.Fatalf("%s: %v, %+v", eng.name, err, s)
		}
		if s.Pivots <= 0 {
			t.Errorf("%s: Pivots = %d, want positive", eng.name, s.Pivots)
		}
		if s.Phase1Pivots <= 0 || s.Phase1Pivots > s.Pivots {
			t.Errorf("%s: Phase1Pivots = %d out of range (total %d)", eng.name, s.Phase1Pivots, s.Pivots)
		}
	}
}
