package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// solveMark is the fuzz byte that ends a batch of clauses.
const solveMark = 128

// FuzzSolver feeds clause streams over six variables to the solver in
// batches and checks every verdict against brute force. A zero byte ends
// a clause, solveMark ends a batch, and any other byte b is the literal
// b%6+1, negated when b > 128. After each batch the solver solves, its
// verdict (and model) is checked, and Backtrack reopens it for the next
// batch. After the last one, enumerating models with BlockModel over all
// six variables must find exactly brute force's model count. checkArena
// runs after every step.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{1, 2, 0, 255, 3, 0})
	f.Add([]byte{1, 0, 255, 1, 0})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, solveMark, 255, 0, solveMark, 130, 0})
	// Random 3-SAT near the threshold, in two batches: enough conflicts,
	// learnt clauses and watch-list moves to reach every path of the
	// arenas.
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		f.Add(threeSATStream(rng, 26))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const nVars = 6
		s := New()
		s.MaxConflicts = 10000
		vars := newVars(s, nVars)
		var clauses [][]int
		var cur []int
		add := func() {
			if len(cur) == 0 {
				return
			}
			cl := slices.Clone(cur)
			mustAdd(t, s, cl...)
			checkArena(t, s)
			clauses = append(clauses, cl)
			cur = cur[:0]
		}
		// solve checks the verdict, and a model, against the clauses so
		// far.
		solve := func() Result {
			t.Helper()
			got := s.Solve()
			checkArena(t, s)
			want := Unsat
			if bruteModels(clauses, nVars) > 0 {
				want = Sat
			}
			if got != want {
				t.Fatalf("Solve = %v on %v, brute force says %v", got, clauses, want)
			}
			if got == Sat && !satisfies(clauses, s.Value) {
				t.Fatalf("model %v violates a clause of %v", model(s), clauses)
			}
			return got
		}
		for _, b := range data {
			switch {
			case b == 0:
				add()
			case b == solveMark:
				add()
				solve()
				s.Backtrack()
				checkArena(t, s)
			default:
				v := int(b%nVars) + 1
				if b > solveMark {
					v = -v
				}
				cur = append(cur, v)
			}
		}
		add()
		want := bruteModels(clauses, nVars)
		models := 0
		for solve() == Sat {
			models++
			blocking := make([]int, nVars)
			for i, v := range vars {
				blocking[i] = v
				if s.Value(v) {
					blocking[i] = -v
				}
			}
			if err := s.BlockModel(vars); err != nil {
				t.Fatal(err)
			}
			checkArena(t, s)
			clauses = append(clauses, blocking)
		}
		if models != want {
			t.Fatalf("enumerated %d models, brute force counts %d", models, want)
		}
	})
}

// threeSATStream draws m random 3-clauses over six variables as FuzzSolver
// input, with a solveMark after the first half.
func threeSATStream(rng *rand.Rand, m int) []byte {
	var data []byte
	for k := 0; k < m; k++ {
		if k == m/2 {
			data = append(data, solveMark)
		}
		for range 3 {
			b := byte(1 + rng.Intn(solveMark-1))
			if rng.Intn(2) == 0 {
				b += solveMark
			}
			data = append(data, b)
		}
		data = append(data, 0)
	}
	return data
}

// bruteModels counts the assignments of variables 1..nVars that satisfy
// every clause.
func bruteModels(clauses [][]int, nVars int) int {
	models := 0
	for mask := 0; mask < 1<<nVars; mask++ {
		if satisfies(clauses, func(v int) bool { return mask>>(v-1)&1 == 1 }) {
			models++
		}
	}
	return models
}

// satisfies reports whether the assignment value satisfies every clause.
func satisfies(clauses [][]int, value func(v int) bool) bool {
	for _, cl := range clauses {
		if !slices.ContainsFunc(cl, func(l int) bool { return (l > 0) == value(max(l, -l)) }) {
			return false
		}
	}
	return true
}
