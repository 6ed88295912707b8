package sat

import (
	"slices"
	"testing"
)

// checkArena verifies the solver's two arenas between operations:
//   - the clause arena parses into whole clauses, NumClauses of them;
//   - each clause is watched exactly once by each of its first two
//     literals, and by no other literal;
//   - every watch segment lies inside the watch arena, segments do not
//     overlap, and each holds n <= cap watchers;
//   - each implied literal's reason clause starts with that literal.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	watchers := map[int32][]int32{} // cref -> literals whose lists hold it
	for cref := int32(0); int(cref) < len(s.clauses); cref += 1 + s.clauses[cref] {
		if n := s.clauses[cref]; n < 2 || int(cref+1+n) > len(s.clauses) {
			t.Fatalf("clause at %d has length %d in an arena of %d", cref, n, len(s.clauses))
		}
		watchers[cref] = nil
	}
	if len(watchers) != s.NumClauses() {
		t.Fatalf("clause arena holds %d clauses, NumClauses = %d", len(watchers), s.NumClauses())
	}
	var segs []watchList
	for l, w := range s.watches {
		if w.off < 0 || w.n < 0 || w.n > w.cap || int(w.off+w.cap) > len(s.watchArena) {
			t.Fatalf("literal %d: segment %+v outside a watch arena of %d", fromLit(int32(l)), w, len(s.watchArena))
		}
		if w.cap > 0 {
			segs = append(segs, w)
		}
		for _, cref := range s.watchArena[w.off : w.off+w.n] {
			if _, ok := watchers[cref]; !ok {
				t.Fatalf("literal %d watches %d, which is not a clause", fromLit(int32(l)), cref)
			}
			watchers[cref] = append(watchers[cref], int32(l))
		}
	}
	slices.SortFunc(segs, func(a, b watchList) int { return int(a.off - b.off) })
	for i := 1; i < len(segs); i++ {
		if a, b := segs[i-1], segs[i]; a.off+a.cap > b.off {
			t.Fatalf("watch segments %+v and %+v overlap", a, b)
		}
	}
	for cref, ws := range watchers {
		c := s.clause(cref)
		slices.Sort(ws)
		if want := []int32{min(c[0], c[1]), max(c[0], c[1])}; !slices.Equal(ws, want) {
			t.Fatalf("clause %v at %d is watched by %v, want its first two literals once each", dimacs(c), cref, dimacs(ws))
		}
	}
	for _, l := range s.trail {
		r := s.reason[litVar(l)]
		if r == noReason {
			continue
		}
		if _, ok := watchers[r]; !ok || s.clause(r)[0] != l {
			t.Fatalf("literal %d has reason %d, which is not a clause starting with it", fromLit(l), r)
		}
	}
}

// dimacs converts internal literals back to DIMACS for messages.
func dimacs(lits []int32) []int {
	out := make([]int, len(lits))
	for i, l := range lits {
		out[i] = fromLit(l)
	}
	return out
}

// fromLit converts an internal literal back to DIMACS, for messages.
func fromLit(l int32) int {
	v := int(l>>1) + 1
	if l&1 == 1 {
		return -v
	}
	return v
}
