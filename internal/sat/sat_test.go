package sat

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func newVars(s *Solver, n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestTrivialSat(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	mustAdd(t, s, v[0])
	mustAdd(t, s, -v[0], v[1])
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if !s.Value(v[0]) || !s.Value(v[1]) {
		t.Errorf("model = %v %v, want true true", s.Value(v[0]), s.Value(v[1]))
	}
}

func mustAdd(t *testing.T, s *Solver, lits ...int) {
	t.Helper()
	if err := s.AddClause(lits...); err != nil {
		t.Fatal(err)
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	v := newVars(s, 1)
	mustAdd(t, s, v[0])
	mustAdd(t, s, -v[0])
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	newVars(s, 1)
	mustAdd(t, s)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s := New()
	newVars(s, 3)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	mustAdd(t, s, v[0], -v[0]) // tautology, no effect
	mustAdd(t, s, -v[1])
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if s.Value(v[1]) {
		t.Error("v1 should be false")
	}
}

// model returns the solver's current assignment indexed by variable-1.
func model(s *Solver) []bool {
	m := make([]bool, s.nVars)
	for v := range m {
		m[v] = s.Value(v + 1)
	}
	return m
}

// lastClause returns the most recently attached clause as DIMACS literals.
func lastClause(s *Solver) []int {
	var last int32
	for cref := int32(0); int(cref) < len(s.clauses); cref += 1 + s.clauses[cref] {
		last = cref
	}
	return dimacs(s.clause(last))
}

func TestDuplicateLiteralsCollapse(t *testing.T) {
	s := New()
	v := newVars(s, 3)
	mustAdd(t, s, v[0], -v[1], v[0], v[2], -v[1], v[2])
	if s.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d, want 1", s.NumClauses())
	}
	if got, want := lastClause(s), []int{v[0], -v[1], v[2]}; !slices.Equal(got, want) {
		t.Errorf("clause = %v, want %v (first occurrences, in order)", got, want)
	}
	// A duplicate before the complementary literal still makes a tautology.
	mustAdd(t, s, v[0], v[1], v[0], -v[1])
	if s.NumClauses() != 1 {
		t.Errorf("tautology after a duplicate was attached: NumClauses = %d", s.NumClauses())
	}
}

func TestRootFalseLiteralDropped(t *testing.T) {
	s := New()
	v := newVars(s, 4)
	mustAdd(t, s, -v[0])
	mustAdd(t, s, v[1], v[0], v[2], v[3])
	if got, want := lastClause(s), []int{v[1], v[2], v[3]}; !slices.Equal(got, want) {
		t.Errorf("clause = %v, want %v (root-false literal dropped)", got, want)
	}
	// Dropping the false literal of a binary clause leaves a unit, which
	// is assigned at the root instead of attached.
	mustAdd(t, s, v[0], -v[3])
	if s.NumClauses() != 1 {
		t.Errorf("NumClauses = %d, want 1", s.NumClauses())
	}
	if l, _ := s.toLit(v[3]); s.val[l] != 0 {
		t.Error("v3 should be false at the root")
	}
}

func TestRootTrueClauseDropped(t *testing.T) {
	s := New()
	v := newVars(s, 3)
	mustAdd(t, s, v[0])
	mustAdd(t, s, v[1], v[2], v[0])
	mustAdd(t, s, -v[1], v[0])
	if s.NumClauses() != 0 {
		t.Errorf("clauses satisfied at the root were attached: NumClauses = %d", s.NumClauses())
	}
	if got := s.Solve(); got != Sat || !s.Value(v[0]) {
		t.Errorf("Solve = %v, v0 = %v; want sat with v0 true", got, s.Value(v[0]))
	}
}

func TestBadLiteral(t *testing.T) {
	s := New()
	newVars(s, 1)
	if err := s.AddClause(0); err == nil {
		t.Error("literal 0 should fail")
	}
	if err := s.AddClause(5); err == nil {
		t.Error("unknown variable should fail")
	}
}

func TestValuePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Value(1)
}

// TestPigeonhole verifies UNSAT on the classic PHP(n+1, n) instances,
// which require genuine conflict-driven search.
func TestPigeonhole(t *testing.T) {
	for _, holes := range []int{3, 4, 5} {
		pigeons := holes + 1
		s := New()
		// p[i][j]: pigeon i in hole j.
		p := make([][]int, pigeons)
		for i := range p {
			p[i] = newVars(s, holes)
			mustAdd(t, s, p[i]...)
		}
		for j := 0; j < holes; j++ {
			for a := 0; a < pigeons; a++ {
				for b := a + 1; b < pigeons; b++ {
					mustAdd(t, s, -p[a][j], -p[b][j])
				}
			}
		}
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want unsat", pigeons, holes, got)
		}
	}
}

// TestRandom3SATAgainstBruteForce cross-checks the CDCL answer against
// exhaustive enumeration on small random instances, checking the arenas
// after every step.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(7)
		m := int(4.3 * float64(n))
		clauses := make([][]int, m)
		for k := range clauses {
			cl := make([]int, 3)
			for i := range cl {
				v := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl[i] = v
			}
			clauses[k] = cl
		}
		s := New()
		newVars(s, n)
		for _, cl := range clauses {
			mustAdd(t, s, cl...)
			checkArena(t, s)
		}
		got := s.Solve()
		checkArena(t, s)
		want := Unsat
		if bruteModels(clauses, n) > 0 {
			want = Sat
		}
		if got != want {
			t.Fatalf("trial %d (n=%d m=%d): got %v want %v", trial, n, m, got, want)
		}
		if got == Sat && !satisfies(clauses, s.Value) {
			t.Fatalf("trial %d: returned model %v violates a clause of %v", trial, model(s), clauses)
		}
	}
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestCardinalityModelCounts(t *testing.T) {
	n := 6
	cases := []struct {
		name string
		add  func(s *Solver, v []int) error
		want int
	}{
		{"AtMost2", func(s *Solver, v []int) error { return s.AtMostK(v, 2) },
			binom(6, 0) + binom(6, 1) + binom(6, 2)},
		{"AtLeast4", func(s *Solver, v []int) error { return s.AtLeastK(v, 4) },
			binom(6, 4) + binom(6, 5) + binom(6, 6)},
		{"Exactly3", func(s *Solver, v []int) error { return s.ExactlyK(v, 3) }, binom(6, 3)},
		{"Exactly0", func(s *Solver, v []int) error { return s.ExactlyK(v, 0) }, 1},
		{"Exactly6", func(s *Solver, v []int) error { return s.ExactlyK(v, 6) }, 1},
		{"AtMost6Vacuous", func(s *Solver, v []int) error { return s.AtMostK(v, 6) }, 64},
		{"AtLeast0Vacuous", func(s *Solver, v []int) error { return s.AtLeastK(v, 0) }, 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			v := newVars(s, n)
			if err := c.add(s, v); err != nil {
				t.Fatal(err)
			}
			count, err := s.CountModels(v, 200)
			if err != nil {
				t.Fatal(err)
			}
			if count != c.want {
				t.Errorf("models = %d, want %d", count, c.want)
			}
		})
	}
}

func TestAtLeastKImpossible(t *testing.T) {
	s := New()
	v := newVars(s, 3)
	if err := s.AtLeastK(v, 4); err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(); got != Unsat {
		t.Errorf("AtLeastK(3 vars, 4) = %v, want unsat", got)
	}
}

func TestAtMostKRejectsNegativeK(t *testing.T) {
	s := New()
	v := newVars(s, 3)
	if err := s.AtMostK(v, -1); err == nil {
		t.Error("negative k should fail")
	}
}

func TestAtMostOnePairwiseAgreesWithSequential(t *testing.T) {
	count := func(enc func(s *Solver, v []int) error) int {
		s := New()
		v := newVars(s, 5)
		if err := enc(s, v); err != nil {
			t.Fatal(err)
		}
		c, err := s.CountModels(v, 100)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := count(func(s *Solver, v []int) error { return s.AtMostOnePairwise(v) })
	b := count(func(s *Solver, v []int) error { return s.AtMostK(v, 1) })
	if a != b || a != 6 {
		t.Errorf("pairwise=%d sequential=%d, want 6", a, b)
	}
}

func TestCountModelsCap(t *testing.T) {
	s := New()
	v := newVars(s, 4) // 16 models
	count, err := s.CountModels(v, 5)
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("capped count = %d, want 5", count)
	}
}

func TestMaxConflictsReturnsUnknown(t *testing.T) {
	// A hard pigeonhole instance with a tiny conflict budget.
	holes := 8
	pigeons := holes + 1
	s := New()
	s.MaxConflicts = 5
	p := make([][]int, pigeons)
	for i := range p {
		p[i] = newVars(s, holes)
		mustAdd(t, s, p[i]...)
	}
	for j := 0; j < holes; j++ {
		for a := 0; a < pigeons; a++ {
			for b := a + 1; b < pigeons; b++ {
				mustAdd(t, s, -p[a][j], -p[b][j])
			}
		}
	}
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve = %v, want unknown under tiny budget", got)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestResultString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Error("Result strings wrong")
	}
}

func TestStatisticsAdvance(t *testing.T) {
	s := New()
	v := newVars(s, 8)
	// Force some conflicts: XOR-ish chains.
	for i := 0; i+1 < len(v); i++ {
		mustAdd(t, s, v[i], v[i+1])
		mustAdd(t, s, -v[i], -v[i+1])
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if s.Stats().Propagations == 0 {
		t.Error("expected some propagations")
	}
}

// TestSolverStats checks the search statistics move on a formula hard
// enough to force conflicts and decisions.
func TestSolverStats(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(3))
	vs := newVars(s, 40)
	// Random 3-SAT near the satisfiability threshold generates plenty of
	// conflicts without being hard.
	for i := 0; i < 160; i++ {
		var lits []int
		for j := 0; j < 3; j++ {
			l := vs[rng.Intn(len(vs))]
			if rng.Intn(2) == 0 {
				l = -l
			}
			lits = append(lits, l)
		}
		if err := s.AddClause(lits...); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Solve()
	if res == Unknown {
		t.Fatal("unexpected Unknown")
	}
	st := s.Stats()
	if st.Decisions <= 0 {
		t.Errorf("Decisions = %d, want positive", st.Decisions)
	}
	if st.Propagations <= 0 {
		t.Errorf("Propagations = %d, want positive", st.Propagations)
	}
}

// TestBacktrackIncrementalSolve drives the incremental-solving contract
// behind census streaming: after a Sat result, Backtrack reopens the
// solver so more constraints can be added, and the next Solve continues
// from the learned state (clauses, statistics) instead of restarting.
func TestBacktrackIncrementalSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New()
	n := 30
	vs := newVars(s, n)
	// A satisfiable planted instance: random 3-clauses each containing at
	// least one literal true under the planted assignment.
	planted := make([]bool, n)
	for i := range planted {
		planted[i] = rng.Intn(2) == 1
	}
	var added [][]int
	addPlanted := func(k int) {
		for c := 0; c < k; c++ {
			a, b, d := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			lit := func(v int) int {
				if rng.Intn(2) == 1 != planted[v] {
					return -vs[v]
				}
				return vs[v]
			}
			sat := a
			l := vs[sat]
			if !planted[sat] {
				l = -l
			}
			cl := []int{l, lit(b), lit(d)}
			mustAdd(t, s, cl...)
			checkArena(t, s)
			added = append(added, cl)
		}
	}
	// solve requires Sat with a model of every clause added so far.
	solve := func(what string) {
		t.Helper()
		got := s.Solve()
		checkArena(t, s)
		if got != Sat {
			t.Fatalf("%s Solve = %v", what, got)
		}
		if !satisfies(added, s.Value) {
			t.Fatalf("%s Solve: model %v violates an added clause", what, model(s))
		}
	}
	addPlanted(60)
	solve("initial")
	clauses, stats := s.NumClauses(), s.Stats()

	// Backtrack, add more constraints, solve again: still Sat (the planted
	// assignment satisfies everything), learned clauses and statistics
	// carried over.
	s.Backtrack()
	checkArena(t, s)
	addPlanted(60)
	solve("incremental")
	if s.NumClauses() < clauses+60 {
		t.Errorf("clauses = %d after adding 60 to %d: learned state was not retained", s.NumClauses(), clauses)
	}
	if st := s.Stats(); st.Decisions < stats.Decisions || st.Propagations < stats.Propagations {
		t.Errorf("statistics went backwards: %+v then %+v", stats, st)
	}
	// With the model blocked the solver must still decide, Sat or Unsat,
	// within its budget.
	if err := s.BlockModel(vs); err != nil {
		t.Fatal(err)
	}
	checkArena(t, s)
	got := s.Solve()
	checkArena(t, s)
	if got == Unknown {
		t.Fatalf("post-block Solve = %v", got)
	}
}

// CountModels enumerates satisfying assignments projected onto vars, up to
// the given limit, by repeated solving with blocking clauses. It mutates
// the solver (adds blocking clauses).
func (s *Solver) CountModels(vars []int, limit int) (int, error) {
	count := 0
	for count < limit {
		switch s.Solve() {
		case Unsat:
			return count, nil
		case Unknown:
			return count, errors.New("sat: conflict budget exhausted during enumeration")
		}
		count++
		if err := s.BlockModel(vars); err != nil {
			return count, err
		}
	}
	return count, nil
}
