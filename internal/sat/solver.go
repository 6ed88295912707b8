// Package sat is a self-contained CDCL SAT solver with two-watched-literal
// propagation, 1UIP clause learning, VSIDS-style activity ordering, phase
// saving and Luby restarts, plus a CNF construction layer with cardinality
// encodings. It stands in for the industrial SAT solvers used by the
// census database-reconstruction experiments the paper surveys ([24]).
//
// Variables are created with NewVar and referenced in clauses by
// DIMACS-style signed integers: +v means "variable v is true", -v means
// "variable v is false".
package sat

import (
	"errors"
	"fmt"

	"singlingout/internal/obs"
)

// Result is the outcome of Solve.
type Result int

// Solve outcomes.
const (
	// Sat means a satisfying assignment was found (readable via Value).
	Sat Result = iota
	// Unsat means the formula is unsatisfiable.
	Unsat
	// Unknown means the conflict budget was exhausted first.
	Unknown
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBadLiteral is returned by AddClause for out-of-range or zero literals.
var ErrBadLiteral = errors.New("sat: literal references unknown variable")

const noReason = -1

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars   int
	clauses [][]int32 // first two literals of each clause are watched
	watches [][]int32 // lit -> clause indices watching that lit

	assign   []int8 // var -> -1 unassigned / 0 false / 1 true
	level    []int32
	reason   []int32
	trail    []int32 // assigned literals in order
	trailLim []int32 // decision-level boundaries in trail
	qhead    int

	activity []float64
	varInc   float64
	polarity []bool // phase saving
	// heap is a max-heap of variables ordered by activity (lazy deletion:
	// entries may be stale or duplicated; decide() skips assigned vars).
	heap    []int32
	heapPos []int32 // var -> index in heap, -1 if absent

	seen []bool // scratch for analyze

	rootUnsat bool

	// Conflicts counts total conflicts across Solve calls (statistic).
	Conflicts int64
	// Propagations counts total unit propagations (statistic).
	Propagations int64
	// Decisions counts total branching decisions across Solve calls.
	Decisions int64
	// Restarts counts total Luby restarts across Solve calls.
	Restarts int64
	// MaxConflicts bounds the search effort of a single Solve call; zero
	// means unlimited.
	MaxConflicts int64

	// Progress, when set, is invoked every ProgressEvery conflicts (default
	// 10000) with the solver's cumulative statistics. It must be cheap; it
	// runs inside the search loop.
	Progress func(Stats)
	// ProgressEvery overrides the conflict interval between Progress calls.
	ProgressEvery int64
}

// Stats is a snapshot of the solver's cumulative search statistics, as
// passed to the Progress hook.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
}

// Stats returns the solver's cumulative search statistics.
func (s *Solver) Stats() Stats {
	return Stats{
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Conflicts:    s.Conflicts,
		Restarts:     s.Restarts,
	}
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1}
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	s.nVars++
	s.assign = append(s.assign, -1)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heapPos = append(s.heapPos, -1)
	s.heapPush(int32(s.nVars - 1))
	return s.nVars
}

// heapLess orders the decision heap by activity (max first).
func (s *Solver) heapLess(a, b int32) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapPush(v int32) {
	if s.heapPos[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapPos[v] = int32(len(s.heap) - 1)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = int32(i)
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) heapPop() (int32, bool) {
	for len(s.heap) > 0 {
		v := s.heap[0]
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heapPos[s.heap[0]] = 0
		s.heap = s.heap[:last]
		s.heapPos[v] = -1
		if len(s.heap) > 0 {
			s.heapDown(0)
		}
		if s.assign[v] < 0 {
			return v, true
		}
	}
	return 0, false
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// toLit converts a DIMACS literal to the internal encoding 2v / 2v+1.
func (s *Solver) toLit(dimacs int) (int32, error) {
	v := dimacs
	if v < 0 {
		v = -v
	}
	if v == 0 || v > s.nVars {
		return 0, fmt.Errorf("%w: %d", ErrBadLiteral, dimacs)
	}
	l := int32((v - 1) * 2)
	if dimacs < 0 {
		l++
	}
	return l, nil
}

func litVar(l int32) int32 { return l >> 1 }
func litNeg(l int32) int32 { return l ^ 1 }
func litSign(l int32) int8 { return int8(1 - l&1) } // value that makes the literal true
func fromLit(l int32) int { // back to DIMACS for debugging
	v := int(l>>1) + 1
	if l&1 == 1 {
		return -v
	}
	return v
}

// litValue returns 1 if the literal is true, 0 if false, -1 if unassigned.
func (s *Solver) litValue(l int32) int8 {
	a := s.assign[litVar(l)]
	if a < 0 {
		return -1
	}
	if a == litSign(l) {
		return 1
	}
	return 0
}

// AddClause adds a clause given as DIMACS literals. Tautologies are
// dropped, duplicates removed. Adding an empty (or all-false root) clause
// marks the formula unsatisfiable.
func (s *Solver) AddClause(lits ...int) error {
	if s.rootUnsat {
		return nil
	}
	if len(s.trailLim) != 0 {
		return errors.New("sat: AddClause only allowed at decision level 0")
	}
	// Translate, dedupe, drop tautologies and root-false literals. Scanning
	// the literals kept so far is cheaper than a per-clause set: most
	// clauses have two or three literals, and the long ones (one-hot rows,
	// blocking clauses) are added once per solve.
	clause := make([]int32, 0, len(lits))
next:
	for _, d := range lits {
		l, err := s.toLit(d)
		if err != nil {
			return err
		}
		for _, k := range clause {
			switch k {
			case litNeg(l):
				return nil // tautology
			case l:
				continue next // duplicate
			}
		}
		switch s.litValue(l) {
		case 1:
			return nil // already satisfied at root
		case 0:
			continue // falsified at root: drop the literal
		}
		clause = append(clause, l)
	}
	switch len(clause) {
	case 0:
		s.rootUnsat = true
		return nil
	case 1:
		s.enqueue(clause[0], noReason)
		if s.propagate() != noConflict {
			s.rootUnsat = true
		}
		return nil
	}
	s.attachClause(clause)
	return nil
}

func (s *Solver) attachClause(clause []int32) int32 {
	idx := int32(len(s.clauses))
	s.clauses = append(s.clauses, clause)
	s.watches[clause[0]] = append(s.watches[clause[0]], idx)
	s.watches[clause[1]] = append(s.watches[clause[1]], idx)
	return idx
}

func (s *Solver) enqueue(l int32, reason int32) {
	v := litVar(l)
	s.assign[v] = litSign(l)
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

const noConflict = int32(-1)

// propagate performs unit propagation; it returns the index of a
// conflicting clause or noConflict.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		falseLit := litNeg(l)
		ws := s.watches[falseLit]
		kept := ws[:0]
		conflict := noConflict
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			s.Propagations++
			c := s.clauses[ci]
			// Normalize: watched false literal at position 1.
			if c[0] == falseLit {
				c[0], c[1] = c[1], c[0]
			}
			// If the other watch is true, clause is satisfied.
			if s.litValue(c[0]) == 1 {
				kept = append(kept, ci)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c); k++ {
				if s.litValue(c[k]) != 0 {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1]] = append(s.watches[c[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, ci)
			if s.litValue(c[0]) == 0 {
				// Conflict: keep remaining watchers and bail.
				kept = append(kept, ws[wi+1:]...)
				conflict = ci
				break
			}
			s.enqueue(c[0], ci)
		}
		s.watches[falseLit] = kept
		if conflict != noConflict {
			s.qhead = len(s.trail)
			return conflict
		}
	}
	return noConflict
}

// analyze performs 1UIP conflict analysis; it returns the learned clause
// (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(conflict int32) ([]int32, int32) {
	learnt := []int32{0} // placeholder for asserting literal
	counter := 0
	var p int32 = -1
	idx := len(s.trail) - 1
	curLevel := int32(len(s.trailLim))
	reasonClause := s.clauses[conflict]
	for {
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal of the reason clause
		}
		for _, q := range reasonClause[start:] {
			v := litVar(q)
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail back to the next marked literal.
		for !s.seen[litVar(s.trail[idx])] {
			idx--
		}
		p = s.trail[idx]
		v := litVar(p)
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = litNeg(p)
			break
		}
		reasonClause = s.clauses[s.reason[v]]
		idx--
	}
	// Clear seen flags and compute backjump level.
	back := int32(0)
	for _, q := range learnt[1:] {
		if lv := s.level[litVar(q)]; lv > back {
			back = lv
		}
		s.seen[litVar(q)] = false
	}
	// Move a literal of the backjump level into watch position 1.
	if len(learnt) > 1 {
		mi := 1
		for k := 2; k < len(learnt); k++ {
			if s.level[litVar(learnt[k])] > s.level[litVar(learnt[mi])] {
				mi = k
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
	}
	return learnt, back
}

func (s *Solver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	// Restore heap order for the bumped variable if it is queued.
	if p := s.heapPos[v]; p >= 0 {
		s.heapUp(int(p))
	}
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int32) {
	if int32(len(s.trailLim)) <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := litVar(s.trail[i])
		s.polarity[v] = s.assign[v] == 1
		s.assign[v] = -1
		s.reason[v] = noReason
		s.heapPush(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// decide picks the unassigned variable with the highest activity from the
// decision heap and assigns its saved phase.
func (s *Solver) decide() bool {
	best, ok := s.heapPop()
	if !ok {
		return false
	}
	s.Decisions++
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
	l := best * 2
	if !s.polarity[best] {
		l++
	}
	s.enqueue(l, noReason)
	return true
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<uint(k))-1 {
			return int64(1) << uint(k-1)
		}
		if i >= int64(1)<<uint(k) {
			continue
		}
		return luby(i - (int64(1) << uint(k-1)) + 1)
	}
}

// Metrics recorded into obs.Default() by Solve: deltas of the solver's
// cumulative statistics are flushed once per Solve call, keeping the
// search loop free of instrumentation.
var (
	mSolves       = obs.Default().Counter("sat.solves")
	mDecisions    = obs.Default().Counter("sat.decisions")
	mPropagations = obs.Default().Counter("sat.propagations")
	mConflicts    = obs.Default().Counter("sat.conflicts")
	mRestarts     = obs.Default().Counter("sat.restarts")
	mSolveNS      = obs.Default().Histogram("sat.solve_ns")
)

// Solve searches for a satisfying assignment, honoring MaxConflicts.
func (s *Solver) Solve() Result {
	mSolves.Add(1)
	sp := mSolveNS.Span()
	defer sp.End()
	before := s.Stats()
	defer func() {
		mDecisions.Add(s.Decisions - before.Decisions)
		mPropagations.Add(s.Propagations - before.Propagations)
		mConflicts.Add(s.Conflicts - before.Conflicts)
		mRestarts.Add(s.Restarts - before.Restarts)
	}()
	if s.rootUnsat {
		return Unsat
	}
	if s.propagate() != noConflict {
		s.rootUnsat = true
		return Unsat
	}
	var restart int64 = 1
	conflictsAtStart := s.Conflicts
	budget := luby(restart) * 100
	conflictsThisRestart := int64(0)
	progressEvery := s.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 10000
	}
	for {
		conflict := s.propagate()
		if conflict != noConflict {
			s.Conflicts++
			conflictsThisRestart++
			if s.Progress != nil && s.Conflicts%progressEvery == 0 {
				s.Progress(s.Stats())
			}
			if len(s.trailLim) == 0 {
				s.rootUnsat = true
				return Unsat
			}
			learnt, back := s.analyze(conflict)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], noReason)
			} else {
				ci := s.attachClause(learnt)
				s.enqueue(learnt[0], ci)
			}
			s.varInc /= 0.95
			if s.MaxConflicts > 0 && s.Conflicts-conflictsAtStart >= s.MaxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			if conflictsThisRestart >= budget {
				restart++
				s.Restarts++
				budget = luby(restart) * 100
				conflictsThisRestart = 0
				s.cancelUntil(0)
			}
			continue
		}
		if !s.decide() {
			return Sat
		}
	}
}

// Value returns the assignment of a variable after a Sat result.
func (s *Solver) Value(v int) bool {
	if v < 1 || v > s.nVars {
		panic(fmt.Sprintf("sat: Value(%d) out of range", v))
	}
	return s.assign[v-1] == 1
}

// Model returns the current satisfying assignment as a []bool indexed by
// variable-1.
func (s *Solver) Model() []bool {
	m := make([]bool, s.nVars)
	for v := 0; v < s.nVars; v++ {
		m[v] = s.assign[v] == 1
	}
	return m
}

// Backtrack undoes every decision, returning the solver to level 0 while
// keeping its learned clauses, activity scores and saved phases. It is
// the incremental-solving hook: after a Sat result (which leaves the
// trail at the final decision level), Backtrack re-opens the solver so
// new constraints can be added with AddClause and a further Solve call
// continues from everything learned so far instead of restarting cold.
func (s *Solver) Backtrack() { s.cancelUntil(0) }

// BlockModel adds a clause excluding the current assignment restricted to
// the given variables, enabling model enumeration. Call after a Sat result
// and before the next Solve. Solve resets to level 0 internally, so the
// clause must be added through a fresh level-0 path: callers should invoke
// BlockModel immediately after Solve returns Sat.
func (s *Solver) BlockModel(vars []int) error {
	lits := make([]int, 0, len(vars))
	for _, v := range vars {
		if v < 1 || v > s.nVars {
			return fmt.Errorf("%w: %d", ErrBadLiteral, v)
		}
		if s.assign[v-1] == 1 {
			lits = append(lits, -v)
		} else {
			lits = append(lits, v)
		}
	}
	s.cancelUntil(0)
	return s.AddClause(lits...)
}

// NumClauses returns the number of attached (non-unit) clauses, including
// learned clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }
