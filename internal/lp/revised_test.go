package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"singlingout/internal/par"
)

// revisedOK solves p with the revised engine and checks feasibility.
func revisedOK(t *testing.T, p *Problem, warm *Basis) *Solution {
	t.Helper()
	s, err := Revised(ctx, p, warm)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	checkFeasible(t, p, s.X)
	if s.Basis == nil {
		t.Fatal("Optimal revised solve returned nil Basis")
	}
	return s
}

// TestRevisedMatchesDenseFixtures reruns the dense engine's fixture LPs
// through the revised engine and cross-checks the objectives.
func TestRevisedMatchesDenseFixtures(t *testing.T) {
	fixtures := []*Problem{
		{ // textbook production LP
			NumVars:   2,
			Objective: []float64{-3, -5},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Rel: LE, RHS: 4},
				{Coeffs: []float64{0, 2}, Rel: LE, RHS: 12},
				{Coeffs: []float64{3, 2}, Rel: LE, RHS: 18},
			},
		},
		{ // equality + GE rows force a real phase 1
			NumVars:   2,
			Objective: []float64{1, 1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 10},
				{Coeffs: []float64{1, 0}, Rel: GE, RHS: 3},
				{Coeffs: []float64{0, 1}, Rel: GE, RHS: 2},
			},
		},
		{ // negative RHS keeps its orientation in the sparse form
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []Constraint{
				{Coeffs: []float64{-1}, Rel: LE, RHS: -5},
			},
		},
		{ // degenerate corner
			NumVars:   2,
			Objective: []float64{-1, -1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Rel: LE, RHS: 0},
				{Coeffs: []float64{2, 0}, Rel: LE, RHS: 0},
				{Coeffs: []float64{1, 1}, Rel: LE, RHS: 3},
			},
		},
	}
	for i, p := range fixtures {
		want := solveOK(t, p)
		got := revisedOK(t, p, nil)
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
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 4},
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 4},
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 3},
		},
	}
	want := solveOK(t, p)
	got := revisedOK(t, p, nil)
	if math.Abs(want.Objective-got.Objective) > 1e-6 {
		t.Errorf("objective = %v, dense %v", got.Objective, want.Objective)
	}
}

func TestRevisedInfeasibleAndUnbounded(t *testing.T) {
	infeas := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: LE, RHS: 1},
			{Coeffs: []float64{1}, Rel: GE, RHS: 2},
		},
	}
	s, err := Revised(ctx, infeas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
	if s.Basis != nil {
		t.Error("non-optimal solve should not return a Basis")
	}
	unb := &Problem{
		NumVars:   2,
		Objective: []float64{-1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 1}, Rel: LE, RHS: 1},
		},
	}
	s, err = Revised(ctx, unb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
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
		rows = append(rows, row{c.Coeffs, c.RHS})
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
			lhs := 0.0
			for j, a := range c.Coeffs {
				lhs += a * x[j]
			}
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
// the no-phase-1 dual cold start.
func TestSolverEquivalenceProperty(t *testing.T) {
	const seed = 11
	check := func(trial int, p *Problem) {
		t.Helper()
		ds, err := Solve(ctx, p)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		rs, err := Revised(ctx, p, nil)
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
	}
	for trial := 0; trial < 120; trial++ {
		check(trial, boxedProblem(par.RNG(seed, trial), trial%2 == 0))
	}
	for trial := 120; trial < 360; trial++ {
		check(trial, boundedProblem(par.RNG(seed, trial), trial%2 == 0))
	}
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
		p.Constraints = append(p.Constraints, Constraint{Coeffs: a, Rel: rel, RHS: rhs})
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		p.Constraints = append(p.Constraints, Constraint{Coeffs: e, Rel: LE, RHS: 3})
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
		p.Constraints = append(p.Constraints, Constraint{Coeffs: a, Rel: EQ, RHS: s + rng.NormFloat64()})
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
		p.Constraints = append(p.Constraints, Constraint{Coeffs: a, Rel: rel, RHS: rhs})
	}
	for j := 0; j < nx; j++ {
		a := make([]float64, n)
		a[j] = 1
		p.Constraints = append(p.Constraints, Constraint{Coeffs: a, Rel: LE, RHS: 3})
	}
	return p
}

// l1FitProblem builds the reconstruction-style L1 fitting LP for a fixed
// query matrix and the given answer vector: the constraint matrix depends
// only on the queries, the answers appear only in the RHS — exactly the
// warm-start scenario of the E02 harness.
func l1FitProblem(qRows [][]float64, answers []float64) *Problem {
	m := len(qRows)
	n := len(qRows[0])
	nv := n + m
	obj := make([]float64, nv)
	for j := n; j < nv; j++ {
		obj[j] = 1
	}
	p := &Problem{NumVars: nv, Objective: obj}
	for k, q := range qRows {
		up := make([]float64, nv)
		lo := make([]float64, nv)
		for i, v := range q {
			up[i] = v
			lo[i] = -v
		}
		up[n+k] = -1
		lo[n+k] = -1
		p.Constraints = append(p.Constraints,
			Constraint{Coeffs: up, Rel: LE, RHS: answers[k]},
			Constraint{Coeffs: lo, Rel: LE, RHS: -answers[k]})
	}
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		row[i] = 1
		p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: LE, RHS: 1})
	}
	return p
}

// TestWarmStartAfterRHSChange is the warm-start contract test: re-solving
// the same constraint matrix with a perturbed RHS from the previous basis
// must give the dense-oracle optimum with no phase 1 and (far) fewer
// pivots than the cold solve.
func TestWarmStartAfterRHSChange(t *testing.T) {
	rng := par.RNG(3, 0)
	n, m := 16, 64
	qRows := make([][]float64, m)
	answers := make([]float64, m)
	truth := make([]float64, n)
	for i := range truth {
		truth[i] = float64(rng.Intn(2))
	}
	for k := range qRows {
		qRows[k] = make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				qRows[k][i] = 1
				answers[k] += truth[i]
			}
		}
	}
	cold, err := Revised(ctx, l1FitProblem(qRows, answers), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal || cold.Basis == nil {
		t.Fatalf("cold solve: status %v", cold.Status)
	}
	if cold.Warm {
		t.Error("cold solve reported Warm")
	}
	basis := cold.Basis
	for round := 0; round < 3; round++ {
		noisy := make([]float64, m)
		for k := range noisy {
			noisy[k] = answers[k] + rng.NormFloat64()*float64(round+1)
		}
		p := l1FitProblem(qRows, noisy)
		warm, err := Revised(ctx, p, basis)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if warm.Status != Optimal {
			t.Fatalf("round %d: status %v", round, warm.Status)
		}
		if !warm.Warm {
			t.Errorf("round %d: warm start not used", round)
		}
		if warm.Phase1Pivots != 0 {
			t.Errorf("round %d: warm solve ran %d phase-1 pivots", round, warm.Phase1Pivots)
		}
		checkFeasible(t, p, warm.X)
		oracle, err := Solve(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm.Objective-oracle.Objective) > 1e-4 {
			t.Errorf("round %d: warm objective %v, dense oracle %v", round, warm.Objective, oracle.Objective)
		}
		coldAgain, err := Revised(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Pivots >= coldAgain.Pivots {
			t.Errorf("round %d: warm solve took %d pivots, cold %d — warm start saved nothing",
				round, warm.Pivots, coldAgain.Pivots)
		}
		basis = warm.Basis
	}
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
		p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: EQ, RHS: rhs})
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

// TestWarmStartAfterBoundAndRHSChange is the warm-start contract for
// implicit bounds: between solves over one matrix the RHS moves, rows
// open and close through their absorber's bound, and data variables'
// bounds tighten, loosen and pin to 0. Every warm solve must be a real
// warm start (no phase 1) and reach the cold optimum's objective. A
// bound loosened to +Inf under a column that prices negative leaves no
// dual-feasible placement; that solve may fall back cold, but must still
// reach the same optimum.
func TestWarmStartAfterBoundAndRHSChange(t *testing.T) {
	rng := par.RNG(5, 0)
	n, m := 12, 48
	qRows, answers := subsetRows(rng, n, m)
	open := make([]bool, m)
	for k := range open {
		open[k] = k >= m/2
	}
	first := revisedOK(t, l1EqualityProblem(qRows, answers, open), nil)
	if first.Phase1Pivots != 0 {
		t.Errorf("cold equality-form solve ran %d phase-1 pivots, want 0", first.Phase1Pivots)
	}
	basis := first.Basis
	for round := 0; round < 4; round++ {
		noisy := make([]float64, m)
		for k := range noisy {
			noisy[k] = answers[k] + rng.NormFloat64()*float64(round)
			open[k] = rng.Intn(4) == 0
		}
		p := l1EqualityProblem(qRows, noisy, open)
		switch round {
		case 1:
			p.Upper[0] = 0.5
		case 2:
			p.Upper[1] = 2
		case 3:
			p.Upper[2] = 0
		}
		warm, err := Revised(ctx, p, basis)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if warm.Status != Optimal || !warm.Warm {
			t.Fatalf("round %d: status %v warm %v, want an optimal warm solve", round, warm.Status, warm.Warm)
		}
		if warm.Phase1Pivots != 0 {
			t.Errorf("round %d: warm solve ran %d phase-1 pivots", round, warm.Phase1Pivots)
		}
		checkFeasible(t, p, warm.X)
		cold := revisedOK(t, p, nil)
		if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Errorf("round %d: warm objective %v, cold %v", round, warm.Objective, cold.Objective)
		}
		oracle := solveOK(t, p)
		if math.Abs(warm.Objective-oracle.Objective) > 1e-4 {
			t.Errorf("round %d: warm objective %v, dense oracle %v", round, warm.Objective, oracle.Objective)
		}
		basis = warm.Basis
	}
	p := l1EqualityProblem(qRows, answers, open)
	for i := 0; i < n; i++ {
		p.Upper[i] = math.Inf(1)
	}
	loose, err := Revised(ctx, p, basis)
	if err != nil {
		t.Fatal(err)
	}
	if cold := revisedOK(t, p, nil); loose.Status != Optimal || math.Abs(loose.Objective-cold.Objective) > 1e-6 {
		t.Errorf("bounds loosened to +Inf: status %v objective %v, cold %v", loose.Status, loose.Objective, cold.Objective)
	}
}

// TestValidateUpper: malformed bounds are rejected before any solve.
func TestValidateUpper(t *testing.T) {
	for _, upper := range [][]float64{{1}, {1, -1}, {1, math.NaN()}, {math.Inf(-1), 1}} {
		p := &Problem{NumVars: 2, Objective: []float64{1, 1}, Upper: upper}
		if _, err := Revised(ctx, p, nil); err == nil {
			t.Errorf("Upper %v: want a validation error", upper)
		}
	}
	p := &Problem{NumVars: 2, Objective: []float64{-1, -1}, Upper: []float64{0, math.Inf(1)},
		Constraints: []Constraint{{Coeffs: []float64{1, 1}, Rel: LE, RHS: 4}}}
	s := revisedOK(t, p, nil)
	if s.X[0] != 0 || math.Abs(s.X[1]-4) > 1e-6 {
		t.Errorf("x = %v, want (0, 4): u = 0 fixes x_0 and +Inf leaves x_1 free", s.X)
	}
}

var fuzzRevisedSeeds = [][]byte{
	{2, 2, 1, 0, 3, 1, 5, 0, 2, 4, 6, 3, 1, 0, 9},
	{3, 3, 0, 1, 3, 2, 6, 5, 4, 3, 2, 1, 0, 6, 5, 4, 3, 2, 1, 7, 7, 7, 0, 1, 2},
	{1, 1, 2, 3, 0, 0},
}

// fuzzProblem builds FuzzRevised's LP from the fuzz bytes, and the RHS
// shift of its warm re-solve.
func fuzzProblem(data []byte) (*Problem, float64) {
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
			Constraint{Coeffs: a, Rel: Rel(next() % 3), RHS: float64(next()%9 - 4)})
	}
	return p, float64(next()%5 - 2)
}

// FuzzRevised checks the bounded revised engine against the dense oracle
// (bounds expanded into rows) on small LPs built from the fuzz bytes:
// integer coefficients in [-3, 3], integer RHS, upper bounds from
// {0, 1, 2, +Inf}, any mix of LE/GE/EQ rows. Both must agree on status
// and, when optimal, on the objective; the revised point must be
// feasible. A second solve warm-started from the first basis under a
// shifted RHS must agree with the oracle too.
func FuzzRevised(f *testing.F) {
	for _, seed := range fuzzRevisedSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, shift := fuzzProblem(data)
		agree := func(s *Solution, what string) {
			want, err := Solve(ctx, p)
			if err != nil {
				t.Fatalf("dense: %v", err)
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
		cold, err := Revised(ctx, p, nil)
		if err != nil {
			t.Fatalf("revised: %v", err)
		}
		agree(cold, "cold")
		if cold.Status != Optimal {
			return
		}
		for i := range p.Constraints {
			p.Constraints[i].RHS += shift
		}
		warm, err := Revised(ctx, p, cold.Basis)
		if err != nil {
			t.Fatalf("warm revised: %v", err)
		}
		agree(warm, "warm")
	})
}

// TestWarmStartNewObjective: a warm basis stays primal feasible when only
// the objective changes, so the warm solve restarts directly in phase 2.
func TestWarmStartNewObjective(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-3, -5},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 4},
			{Coeffs: []float64{0, 2}, Rel: LE, RHS: 12},
			{Coeffs: []float64{3, 2}, Rel: LE, RHS: 18},
		},
	}
	first := revisedOK(t, p, nil)
	p2 := &Problem{NumVars: 2, Objective: []float64{-5, -1}, Constraints: p.Constraints}
	warm, err := Revised(ctx, p2, first.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !warm.Warm {
		t.Fatalf("status %v warm %v, want optimal warm solve", warm.Status, warm.Warm)
	}
	oracle := solveOK(t, p2)
	if math.Abs(warm.Objective-oracle.Objective) > 1e-6 {
		t.Errorf("objective %v, dense oracle %v", warm.Objective, oracle.Objective)
	}
}

// TestWarmStartMismatch: a basis from a different constraint matrix must
// be rejected, not silently misused.
func TestWarmStartMismatch(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 2}, Rel: LE, RHS: 4},
		},
	}
	s := revisedOK(t, p, nil)
	other := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 3}, Rel: LE, RHS: 4}, // different coefficient
		},
	}
	if _, err := Revised(ctx, other, s.Basis); !errors.Is(err, ErrBasisMismatch) {
		t.Errorf("err = %v, want ErrBasisMismatch", err)
	}
	// Same matrix, new RHS: accepted.
	same := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 2}, Rel: LE, RHS: 9},
		},
	}
	if _, err := Revised(ctx, same, s.Basis); err != nil {
		t.Errorf("same-matrix warm solve: %v", err)
	}
}

// TestWarmStartInfeasibleRHS: an RHS change can make the problem
// infeasible; the dual simplex on the warm path must detect that.
func TestWarmStartInfeasibleRHS(t *testing.T) {
	mk := func(rhs float64) *Problem {
		return &Problem{
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []Constraint{
				{Coeffs: []float64{1}, Rel: LE, RHS: 1},
				{Coeffs: []float64{-1}, Rel: LE, RHS: rhs},
			},
		}
	}
	s := revisedOK(t, mk(0), nil)              // x >= 0: feasible
	warm, err := Revised(ctx, mk(-2), s.Basis) // x >= 2 but x <= 1: infeasible
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", warm.Status)
	}
}
