package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"singlingout/internal/par"
)

// solveFresh solves p cold on a new Solver.
func solveFresh(p *Problem) (*Solution, error) {
	s, err := NewSolver(p)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx)
}

// revisedOK solves p cold on a new Solver, checks that the solve is
// optimal and feasible, and returns both.
func revisedOK(t *testing.T, p *Problem) (*Solver, *Solution) {
	t.Helper()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	checkFeasible(t, p, sol.X)
	return s, sol
}

// setData writes src's RHS values, bounds and objective into dst, a
// Problem over the same constraint matrix: the data a Solver built on
// dst reads afresh at each solve.
func setData(dst, src *Problem) {
	for i := range dst.Constraints {
		dst.Constraints[i].RHS = src.Constraints[i].RHS
	}
	dst.Upper, dst.Objective = src.Upper, src.Objective
}

// reuseMatchesFresh solves p on s, a Solver that has solved before, and
// on a new Solver, and fails unless the two agree bit for bit: the
// error, or the status, X, the objective and both pivot counts. It
// returns the reused Solver's solution.
func reuseMatchesFresh(t *testing.T, what string, s *Solver, p *Problem) *Solution {
	t.Helper()
	fresh, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(ctx)
	want, wantErr := fresh.Solve(ctx)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: reused solver error %v, fresh %v", what, err, wantErr)
	}
	if err != nil {
		return nil
	}
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if got.Status != want.Status || !sameBits(got.X, want.X) ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		got.Pivots != want.Pivots || got.Phase1Pivots != want.Phase1Pivots {
		t.Fatalf("%s: reused solver %+v, fresh %+v", what, got, want)
	}
	return got
}

// TestRevisedMatchesDenseFixtures reruns the dense engine's fixture LPs
// through the revised engine and cross-checks the objectives.
func TestRevisedMatchesDenseFixtures(t *testing.T) {
	fixtures := []*Problem{
		{ // textbook production LP
			NumVars:   2,
			Objective: []float64{-3, -5},
			Constraints: []Constraint{
				dense([]float64{1, 0}, LE, 4),
				dense([]float64{0, 2}, LE, 12),
				dense([]float64{3, 2}, LE, 18),
			},
		},
		{ // equality + GE rows force a real phase 1
			NumVars:   2,
			Objective: []float64{1, 1},
			Constraints: []Constraint{
				dense([]float64{1, 1}, EQ, 10),
				dense([]float64{1, 0}, GE, 3),
				dense([]float64{0, 1}, GE, 2),
			},
		},
		{ // negative RHS keeps its orientation in the sparse form
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []Constraint{
				dense([]float64{-1}, LE, -5),
			},
		},
		{ // degenerate corner
			NumVars:   2,
			Objective: []float64{-1, -1},
			Constraints: []Constraint{
				dense([]float64{1, 0}, LE, 0),
				dense([]float64{2, 0}, LE, 0),
				dense([]float64{1, 1}, LE, 3),
			},
		},
	}
	for i, p := range fixtures {
		want := solveOK(t, p)
		_, got := revisedOK(t, p)
		if math.Abs(want.Objective-got.Objective) > 1e-6 {
			t.Errorf("fixture %d: revised objective %v, dense %v", i, got.Objective, want.Objective)
		}
	}
}

// TestRevisedRedundantRows: duplicated equality rows leave a zero-level
// artificial stuck basic; both engines must still agree on the optimum.
func TestRevisedRedundantRows(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			dense([]float64{1, 1}, EQ, 4),
			dense([]float64{1, 1}, EQ, 4),
			dense([]float64{1, 0}, LE, 3),
		},
	}
	want := solveOK(t, p)
	_, got := revisedOK(t, p)
	if math.Abs(want.Objective-got.Objective) > 1e-6 {
		t.Errorf("objective = %v, dense %v", got.Objective, want.Objective)
	}
}

// TestRevisedInfeasibleAndUnbounded: both statuses are reported, and a
// solve that ends in either leaves nothing that changes the next solve
// on the same Solver, which matches a fresh one's.
func TestRevisedInfeasibleAndUnbounded(t *testing.T) {
	infeas := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			dense([]float64{1}, LE, 1),
			dense([]float64{1}, GE, 2),
		},
	}
	unb := &Problem{
		NumVars:   2,
		Objective: []float64{-1, 0},
		Constraints: []Constraint{
			dense([]float64{0, 1}, LE, 1),
		},
	}
	for _, tc := range []struct {
		p    *Problem
		want Status
	}{{infeas, Infeasible}, {unb, Unbounded}} {
		s, err := NewSolver(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != tc.want {
			t.Errorf("status %v, want %v", sol.Status, tc.want)
		}
		if sol := reuseMatchesFresh(t, "re-solve", s, tc.p); sol.Status != tc.want {
			t.Errorf("re-solve: status %v, want %v", sol.Status, tc.want)
		}
	}
}

// vertexEnumerate brute-forces the optimum of a small LP by enumerating
// every basic point: each choice of NumVars rows from the constraint set
// plus the x_j >= 0 bounds, solved as equalities and checked for
// feasibility. It is the third, solver-free oracle of the equivalence
// property test.
func vertexEnumerate(p *Problem) (best float64, found bool) {
	n := p.NumVars
	type row struct {
		a []float64
		b float64
	}
	var rows []row
	for _, c := range p.Constraints {
		a := make([]float64, n)
		for k, j := range c.Vars {
			a[j] = c.Coeffs[k]
		}
		rows = append(rows, row{a, c.RHS})
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		rows = append(rows, row{e, 0})
	}
	feasible := func(x []float64) bool {
		const eps = 1e-6
		for _, v := range x {
			if v < -eps {
				return false
			}
		}
		for _, c := range p.Constraints {
			lhs := lhs(c, x)
			switch c.Rel {
			case LE:
				if lhs > c.RHS+eps {
					return false
				}
			case GE:
				if lhs < c.RHS-eps {
					return false
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > eps {
					return false
				}
			}
		}
		return true
	}
	// Gaussian elimination on the chosen square system.
	solveSquare := func(idx []int) ([]float64, bool) {
		a := make([][]float64, n)
		for i, ri := range idx {
			a[i] = append(append([]float64(nil), rows[ri].a...), rows[ri].b)
		}
		for col := 0; col < n; col++ {
			piv, pv := -1, 1e-9
			for r := col; r < n; r++ {
				if v := math.Abs(a[r][col]); v > pv {
					piv, pv = r, v
				}
			}
			if piv < 0 {
				return nil, false
			}
			a[col], a[piv] = a[piv], a[col]
			for r := 0; r < n; r++ {
				if r == col {
					continue
				}
				f := a[r][col] / a[col][col]
				if f == 0 {
					continue
				}
				for j := col; j <= n; j++ {
					a[r][j] -= f * a[col][j]
				}
			}
		}
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = a[i][n] / a[i][i]
		}
		return x, true
	}
	best = math.Inf(1)
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(idx)
			if !ok || !feasible(x) {
				return
			}
			v := 0.0
			for j, c := range p.Objective {
				v += c * x[j]
			}
			if v < best {
				best = v
			}
			found = true
			return
		}
		for i := start; i < len(rows); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

// TestSolverEquivalenceProperty generates random small LPs — mixed LE/GE/EQ
// rows, box-bounded so unboundedness is impossible — and requires the
// dense simplex, the revised simplex and brute-force vertex enumeration
// to agree on status and optimal objective. Trials 120.. add implicit
// upper bounds (0, finite and +Inf mixed; the oracles see them as rows)
// and elastic equality rows with unbounded ±1 singleton columns — the
// shape of the L1 decoding LP, which exercises the singleton crash and
// the no-phase-1 dual cold start. Each trial then changes the RHS, a
// bound or the objective and solves again on the same Solver, which
// must match a fresh Solver bit for bit and agree with the dense
// simplex; so must a streamed L1 decoding LP and a Chebyshev decoding
// LP, whose solves take phase 1, across answer changes.
func TestSolverEquivalenceProperty(t *testing.T) {
	const seed = 11
	check := func(trial int, rng *rand.Rand, p *Problem) {
		t.Helper()
		ds, err := Solve(ctx, p)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}
		rs, err := s.Solve(ctx)
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}
		if ds.Status != rs.Status {
			t.Fatalf("trial %d: dense %v, revised %v", trial, ds.Status, rs.Status)
		}
		enumBest, enumFound := vertexEnumerate(expandUpper(p))
		switch ds.Status {
		case Optimal:
			if math.Abs(ds.Objective-rs.Objective) > 1e-5 {
				t.Fatalf("trial %d: dense obj %v, revised obj %v", trial, ds.Objective, rs.Objective)
			}
			if !enumFound {
				t.Fatalf("trial %d: solvers optimal but vertex enumeration found no feasible vertex", trial)
			}
			if math.Abs(ds.Objective-enumBest) > 1e-4 {
				t.Fatalf("trial %d: solver obj %v, vertex-enumeration obj %v", trial, ds.Objective, enumBest)
			}
			checkFeasible(t, p, ds.X)
			checkFeasible(t, p, rs.X)
		case Infeasible:
			if enumFound {
				t.Fatalf("trial %d: solvers infeasible but vertex enumeration found a feasible vertex (obj %v)", trial, enumBest)
			}
		case Unbounded:
			t.Fatalf("trial %d: box-bounded LP reported unbounded", trial)
		}
		changeProblem(rng, p, trial%3)
		what := fmt.Sprintf("trial %d: re-solve", trial)
		agreeDense(t, what, p, reuseMatchesFresh(t, what, s, p))
	}
	for trial := 0; trial < 120; trial++ {
		rng := par.RNG(seed, trial)
		check(trial, rng, boxedProblem(rng, trial%2 == 0))
	}
	for trial := 120; trial < 360; trial++ {
		rng := par.RNG(seed, trial)
		check(trial, rng, boundedProblem(rng, trial%2 == 0))
	}

	// The decoder's L1 form, streamed: rows are answered 12 at a time
	// through their RHS and absorber bound, then a fresh answer vector
	// moves every row.
	rng := par.RNG(seed, 360)
	qRows, answers := subsetRows(rng, 12, 48)
	open := make([]bool, len(qRows))
	p := l1EqualityProblem(qRows, answers, open)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for answered := 0; answered <= len(qRows); answered += 12 {
			for k := range open {
				open[k] = k >= answered
			}
			setData(p, l1EqualityProblem(qRows, answers, open))
			agreeDense(t, "L1 push", p, reuseMatchesFresh(t, "L1 push", s, p))
		}
		for k := range answers {
			answers[k] += rng.NormFloat64()
		}
	}

	// Chebyshev decoding: the crash covers only the first row of each
	// pair, so a solve runs phase 1, over 145 columns: more than one
	// partial-pricing section, so where the pricing cursor starts counts.
	qRows, answers = subsetRows(rng, 16, 64)
	p = chebyshevProblem(qRows, answers)
	if s, err = NewSolver(p); err != nil {
		t.Fatal(err)
	}
	phase1 := 0
	for round := 0; round < 4; round++ {
		for k, a := range answers {
			a += rng.NormFloat64() * float64(round)
			p.Constraints[2*k].RHS, p.Constraints[2*k+1].RHS = a, -a
		}
		sol := reuseMatchesFresh(t, "Chebyshev", s, p)
		agreeDense(t, "Chebyshev", p, sol)
		phase1 += sol.Phase1Pivots
	}
	if phase1 == 0 {
		t.Error("no Chebyshev solve ran phase 1")
	}
}

// agreeDense fails unless s, a revised solve of p, has the dense
// simplex's status and, when optimal, its objective and a feasible point.
func agreeDense(t *testing.T, what string, p *Problem, s *Solution) {
	t.Helper()
	want, err := Solve(ctx, p)
	if err != nil {
		t.Fatalf("%s: dense: %v", what, err)
	}
	if s.Status != want.Status {
		t.Fatalf("%s: revised %v, dense %v on %+v", what, s.Status, want.Status, p)
	}
	if s.Status == Optimal {
		if math.Abs(s.Objective-want.Objective) > 1e-5*(1+math.Abs(want.Objective)) {
			t.Fatalf("%s: revised obj %v, dense %v on %+v", what, s.Objective, want.Objective, p)
		}
		checkFeasible(t, p, s.X)
	}
}

// changeProblem changes p's data in place, as a caller between solves of
// one Solver may: kind 0 moves every RHS, kind 1 one variable's upper
// bound (to 0, a finite value or +Inf), and kind 2 scales each objective
// entry by a factor in [-0.5, 1.5), which can flip its sign.
func changeProblem(rng *rand.Rand, p *Problem, kind int) {
	switch kind {
	case 0:
		for i := range p.Constraints {
			p.Constraints[i].RHS += rng.NormFloat64()
		}
	case 1:
		if p.Upper == nil {
			p.Upper = make([]float64, p.NumVars)
			for j := range p.Upper {
				p.Upper[j] = math.Inf(1)
			}
		}
		p.Upper[rng.Intn(p.NumVars)] = []float64{0, 0.5 + 2*rng.Float64(), math.Inf(1)}[rng.Intn(3)]
	case 2:
		for j := range p.Objective {
			p.Objective[j] *= 2*rng.Float64() - 0.5
		}
	}
}

// chebyshevProblem is the decoder's Chebyshev form: minimize t subject
// to |Σ_{i∈q} x_i − a_k| ≤ t for each query k, as two LE rows, with
// x ∈ [0,1].
func chebyshevProblem(qRows [][]float64, answers []float64) *Problem {
	n := len(qRows[0])
	p := &Problem{NumVars: n + 1, Objective: make([]float64, n+1), Upper: make([]float64, n+1)}
	for i := 0; i < n; i++ {
		p.Upper[i] = 1
	}
	p.Objective[n], p.Upper[n] = 1, math.Inf(1)
	for k, q := range qRows {
		up, lo := make([]float64, n+1), make([]float64, n+1)
		for i, v := range q {
			up[i], lo[i] = v, -v
		}
		up[n], lo[n] = -1, -1
		p.Constraints = append(p.Constraints, dense(up, LE, answers[k]), dense(lo, LE, -answers[k]))
	}
	return p
}

// boxedProblem draws a small LP over n ≤ 3 variables with mixed
// LE/GE/EQ rows and box rows at 3, which rule out unboundedness. anchored
// trials build the rows feasible at a random point; the others use free
// RHS values (often infeasible).
func boxedProblem(rng *rand.Rand, anchored bool) *Problem {
	n := 1 + rng.Intn(3)
	m := 1 + rng.Intn(4)
	xStar := make([]float64, n)
	for j := range xStar {
		xStar[j] = rng.Float64() * 2
	}
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = rng.NormFloat64()
	}
	for i := 0; i < m; i++ {
		a := make([]float64, n)
		s := 0.0
		for j := range a {
			a[j] = rng.NormFloat64()
			s += a[j] * xStar[j]
		}
		rel := Rel(rng.Intn(3))
		rhs := rng.NormFloat64() * 2
		if anchored {
			switch rel {
			case LE:
				rhs = s + rng.Float64()
			case GE:
				rhs = s - rng.Float64()
			case EQ:
				rhs = s
			}
		}
		p.Constraints = append(p.Constraints, dense(a, rel, rhs))
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		p.Constraints = append(p.Constraints, dense(e, LE, 3))
	}
	return p
}

// boundedProblem draws a small LP over nx ≤ 3 "data" variables with
// implicit upper bounds drawn from {0, finite, +Inf}, box rows at 3 on
// the data variables only, and up to two elastic equality rows, each
// with its own unbounded ±1 singleton pair at cost 1 (so every elastic
// row is feasible whatever its RHS, and the objective stays bounded).
// anchored trials build the other rows feasible at a random point of
// the box.
func boundedProblem(rng *rand.Rand, anchored bool) *Problem {
	nx := 1 + rng.Intn(3)
	ne := rng.Intn(3)
	m := rng.Intn(3)
	if ne+m == 0 {
		m = 1
	}
	n := nx + 2*ne
	p := &Problem{NumVars: n, Objective: make([]float64, n), Upper: make([]float64, n)}
	xStar := make([]float64, nx)
	for j := 0; j < nx; j++ {
		p.Objective[j] = rng.NormFloat64()
		switch rng.Intn(4) {
		case 0:
			p.Upper[j] = 0
		case 1:
			p.Upper[j] = math.Inf(1)
		default:
			p.Upper[j] = 0.5 + 2*rng.Float64()
		}
		xStar[j] = rng.Float64() * math.Min(p.Upper[j], 3)
	}
	for j := nx; j < n; j++ {
		p.Objective[j] = 1
		p.Upper[j] = math.Inf(1)
	}
	row := func() ([]float64, float64) {
		a := make([]float64, n)
		s := 0.0
		for j := 0; j < nx; j++ {
			a[j] = rng.NormFloat64()
			s += a[j] * xStar[j]
		}
		return a, s
	}
	for k := 0; k < ne; k++ {
		a, s := row()
		a[nx+2*k], a[nx+2*k+1] = -1, 1
		p.Constraints = append(p.Constraints, dense(a, EQ, s+rng.NormFloat64()))
	}
	for i := 0; i < m; i++ {
		a, s := row()
		rel := Rel(rng.Intn(3))
		rhs := rng.NormFloat64() * 2
		if anchored {
			switch rel {
			case LE:
				rhs = s + rng.Float64()
			case GE:
				rhs = s - rng.Float64()
			case EQ:
				rhs = s
			}
		}
		p.Constraints = append(p.Constraints, dense(a, rel, rhs))
	}
	for j := 0; j < nx; j++ {
		a := make([]float64, n)
		a[j] = 1
		p.Constraints = append(p.Constraints, dense(a, LE, 3))
	}
	return p
}

// l1EqualityProblem is the decoder's bounded equality form of the L1
// fit: one row Σ_{i∈q} x_i − e⁺_k + e⁻_k − f_k = a_k per query k, with
// x ∈ [0,1], e± ≥ 0 at cost 1 and a zero-cost absorber f_k whose upper
// bound (0 or len(x)) decides whether row k binds.
func l1EqualityProblem(qRows [][]float64, answers []float64, open []bool) *Problem {
	m, n := len(qRows), len(qRows[0])
	nv := n + 3*m
	p := &Problem{NumVars: nv, Objective: make([]float64, nv), Upper: make([]float64, nv)}
	for j := range p.Upper {
		p.Upper[j] = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		p.Upper[i] = 1
	}
	for k, q := range qRows {
		row := make([]float64, nv)
		copy(row, q)
		row[n+k], row[n+m+k], row[n+2*m+k] = -1, 1, -1
		p.Objective[n+k], p.Objective[n+m+k] = 1, 1
		p.Upper[n+2*m+k] = 0
		rhs := answers[k]
		if open[k] {
			p.Upper[n+2*m+k], rhs = float64(n), 0
		}
		p.Constraints = append(p.Constraints, dense(row, EQ, rhs))
	}
	return p
}

// subsetRows draws m random subset queries over n variables as 0/1
// rows, and their exact answers on a random 0/1 database.
func subsetRows(rng *rand.Rand, n, m int) ([][]float64, []float64) {
	qRows := make([][]float64, m)
	answers := make([]float64, m)
	for k := range qRows {
		qRows[k] = make([]float64, n)
		for i := range qRows[k] {
			if rng.Intn(2) == 1 {
				qRows[k][i] = 1
				answers[k] += float64(rng.Intn(2))
			}
		}
	}
	return qRows, answers
}

// TestValidateUpper: malformed bounds are rejected before any solve.
func TestValidateUpper(t *testing.T) {
	for _, upper := range [][]float64{{1}, {1, -1}, {1, math.NaN()}, {math.Inf(-1), 1}} {
		p := &Problem{NumVars: 2, Objective: []float64{1, 1}, Upper: upper}
		if _, err := solveFresh(p); err == nil {
			t.Errorf("Upper %v: want a validation error", upper)
		}
	}
	p := &Problem{NumVars: 2, Objective: []float64{-1, -1}, Upper: []float64{0, math.Inf(1)},
		Constraints: []Constraint{dense([]float64{1, 1}, LE, 4)}}
	_, s := revisedOK(t, p)
	if s.X[0] != 0 || math.Abs(s.X[1]-4) > 1e-6 {
		t.Errorf("x = %v, want (0, 4): u = 0 fixes x_0 and +Inf leaves x_1 free", s.X)
	}
}

var fuzzRevisedSeeds = [][]byte{
	{2, 2, 1, 0, 3, 1, 5, 0, 2, 4, 6, 3, 1, 0, 9},
	{3, 3, 0, 1, 3, 2, 6, 5, 4, 3, 2, 1, 0, 6, 5, 4, 3, 2, 1, 7, 7, 7, 0, 1, 2},
	{1, 1, 2, 3, 0, 0},
	// The three seeds above are not optimal. Minimize −2x₀ − x₁ over
	// x₀ + x₁ ≤ 2, 2x₀ ≤ 3, x₀ ≤ 2, x₁ ≤ 1; then the RHS moves up by 1,
	// x₁'s bound drops to 0 and c₀ becomes 3, which moves the optimum.
	{1, 1, 1, 2, 2, 1, 4, 4, 0, 6, 5, 3, 0, 7, 3, 3, 1, 0, 0, 6},
	// Minimize x₀ + 2x₁ over x₀ + x₁ ≥ 1, x₁ + x₂ = 1, x₁ ≤ 2, x₂ ≤ 1,
	// which the crash solves with no pivot; then c₁ becomes −3, which
	// moves the optimum to x₁ = 1.
	{2, 1, 4, 3, 5, 2, 3, 1, 4, 4, 3, 1, 5, 3, 4, 4, 2, 5, 2, 2, 0, 0, 1, 0},
	// TestCentreFallsBackToCrash's failure in integers: minimize
	// x₀ + e⁺ + e⁻ over 3x₀ − x₁ − e⁺ + e⁻ = 1, x₀ + x₁ ≤ 2, x₀ ≤ 2, with
	// x₁ and e± unbounded; then the RHS moves up by 1. The centred start
	// puts row 0 on e⁺, where x₁ prices at −1, so both cold solves fall
	// back to the crash's basis; primal phase 2 from the centred one
	// ended at objective 0, on a point that breaks row 0, against 1/3.
	{3, 1, 4, 2, 3, 3, 4, 3, 4, 3, 6, 2, 2, 4, 2, 5, 4, 4, 3, 3, 0, 6, 3, 0},
}

// fuzzProblem builds FuzzRevised's LP from the fuzz bytes, and the data
// change before its re-solves: an RHS shift, then, when the bytes after
// it ask (bit 0 and bit 1 of the next byte), one variable's upper bound
// and one objective entry.
func fuzzProblem(data []byte) (*Problem, func(*Problem)) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	n := 1 + next()%4
	m := 1 + next()%4
	p := &Problem{NumVars: n, Objective: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Objective[j] = float64(next()%7 - 3)
		p.Upper[j] = []float64{0, 1, 2, math.Inf(1)}[next()%4]
	}
	for i := 0; i < m; i++ {
		a := make([]float64, n)
		for j := range a {
			a[j] = float64(next()%7 - 3)
		}
		p.Constraints = append(p.Constraints,
			dense(a, Rel(next()%3), float64(next()%9-4)))
	}
	shift := float64(next()%5 - 2)
	mode := next()
	upperVar, upper := next()%n, []float64{0, 1, 2, math.Inf(1)}[next()%4]
	objVar, obj := next()%n, float64(next()%7-3)
	return p, func(p *Problem) {
		for i := range p.Constraints {
			p.Constraints[i].RHS += shift
		}
		if mode&1 != 0 {
			p.Upper[upperVar] = upper
		}
		if mode&2 != 0 {
			p.Objective[objVar] = obj
		}
	}
}

// FuzzRevised checks the bounded revised engine against the dense oracle
// (bounds expanded into rows) on small LPs built from the fuzz bytes:
// integer coefficients in [-3, 3], integer RHS, upper bounds from
// {0, 1, 2, +Inf}, any mix of LE/GE/EQ rows. Both must agree on status
// and, when optimal, on the objective; the revised point must be
// feasible. The same Solver then solves again after an RHS shift and,
// as the bytes ask, a bound and an objective change. The re-solve must
// agree with the oracle and match a fresh Solver's bit for bit.
func FuzzRevised(f *testing.F) {
	for _, seed := range fuzzRevisedSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, change := fuzzProblem(data)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatalf("revised: %v", err)
		}
		sol, err := s.Solve(ctx)
		if err != nil {
			t.Fatalf("revised: %v", err)
		}
		agreeDense(t, "first solve", p, sol)
		change(p)
		agreeDense(t, "re-solve after the change", p, reuseMatchesFresh(t, "re-solve after the change", s, p))
	})
}
