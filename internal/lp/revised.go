package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrSingularBasis is returned when the engine cannot keep a numerically
// nonsingular basis factorization (indicative of a pathological instance
// or a bug).
var ErrSingularBasis = errors.New("lp: numerically singular basis")

const (
	// feasTol is the feasibility tolerance on basic variable values and
	// reduced costs.
	feasTol = 1e-7
	// refactorEvery bounds the eta file: after this many product-form
	// updates the basis is refactorized from scratch, restoring both
	// speed (every FTRAN/BTRAN replays the file, so its length multiplies
	// the per-pivot cost) and accuracy. The sparse refactorization is
	// cheap on the reconstruction LPs, so the file is kept short.
	refactorEvery = 24
	// dualBlandRun is the consecutive-degenerate-pivot threshold at which
	// the dual simplex switches its leaving-row choice from Dantzig (most
	// infeasible) to Bland's least-index rule. The primal side is
	// protected by the ε-perturbation and blandAfter, but the dual ratio
	// test runs on the unperturbed reduced costs, and the L1-fitting LPs
	// are massively dual degenerate when few of their rows bind: a
	// streamed push with most rows unanswered prices many x columns at
	// exactly 0, with their breakpoints at 0, and Dantzig can cycle
	// there. Least-index selection (with the ratio test's lowest-column
	// tie-break) is provably finite.
	dualBlandRun = 256
)

// revised is the sparse revised-simplex engine of one constraint matrix:
// its storage lives as long as the Solver, and reset readies it for each
// solve.
type revised struct {
	p  *Problem
	sf *standard
	m  int

	// artRows/artVals hold the artificial singleton columns: artificial r
	// is the one entry artRows[r] = r, artVals[r] = ±1.
	artRows  []int32
	artVals  []float64
	cost     []float64 // current phase objective, indexed by column id
	ub       []float64 // upper bound by column id (artificials +Inf)
	canEnter []bool    // active, non-fixed structural or row-variable column
	atUpper  []bool    // nonbasic column sits at its upper bound
	basis    []int     // basis position -> column id
	posOf    []int     // column id -> basis position, -1 if nonbasic
	xB       []float64 // basic variable values by position
	// ubB is the upper bound of the basic column at each position:
	// refactor fills it and doPivot keeps it current.
	ubB []float64
	lu  *luFactor

	pivots       int
	phase1Pivots int
	dualPivots   int

	ctx      context.Context
	pricePos int // partial-pricing cursor
	// onPivot, when set, runs after every pivot: the kernel tests'
	// per-pivot check.
	onPivot func()

	// Scratch (reused across iterations and solves).
	rowScratch []float64 // row-indexed FTRAN/BTRAN input
	posScratch []float64 // position-indexed BTRAN input
	d          []float64 // FTRAN output (position-indexed)
	y          []float64 // BTRAN output (row-indexed)
	// rho is btranRow's output (row-indexed), zero but at the rows
	// rhoNZ lists; rhoMark is btranRow's bitset over rows, all zero
	// between calls.
	rho     []float64
	rhoNZ   []int32
	rhoMark []uint64
	dualD   []float64 // dual simplex's cached nonbasic reduced costs
	// alpha is the dual simplex's pivot row ρ·A, by column id, zero but
	// at the columns alphaCols lists, ascending.
	alpha     []float64
	alphaCols []int32
	cands     []dualCand
	flips     []int
}

// Solver is the revised simplex engine of one constraint matrix.
// NewSolver reads the Problem's structure once — NumVars and every
// constraint's Vars, Coeffs and Rel — and builds the standard form, the
// engine's per-column arrays and the LU factor's storage. Each Solve then
// reads only the RHS values, Upper and Objective, which the caller may
// change between solves. So re-solving one matrix under new answers,
// bounds or costs costs no rebuild. Every Solve starts cold, and no
// solve hands the next anything but storage, so a reused Solver returns
// what a fresh one would, bit for bit. Changing the structure after
// NewSolver is not supported: the Solver keeps the one it read. A Solver
// is not safe for concurrent use.
type Solver struct {
	e revised
}

// NewSolver validates p's structure and builds its engine.
func NewSolver(p *Problem) (*Solver, error) {
	if err := validateStructure(p); err != nil {
		return nil, err
	}
	s := &Solver{}
	s.e.init(p, buildStandard(p))
	return s, nil
}

// Solve solves the Solver's problem under its current RHS, bounds and
// objective with the sparse bounded-variable revised simplex:
// column-wise sparse constraint storage, implicit bounds 0 ≤ x ≤ Upper,
// an LU-factorized basis with product-form updates between periodic
// refactorizations, candidate-list partial pricing, a singleton crash
// that skips phase 1 whenever every row has a singleton column (each
// row's pick then re-made at the centre of the box, for a dual simplex
// start nearer the optimum), and Bland fallbacks for termination.
//
// Numerical contract: the engine relaxes each inequality by a tiny
// anti-degeneracy perturbation, so the returned point may violate the
// stated constraints by up to ~1e-5 for problems with up to ~1000 rows;
// equalities are not perturbed.
//
// The context is checked every 4,096 pivots.
func (s *Solver) Solve(ctx context.Context) (*Solution, error) {
	e := &s.e
	p, sf := e.p, e.sf
	if p.NumVars != sf.nStruct || len(p.Constraints) != sf.m {
		return nil, fmt.Errorf("lp: problem resized to %d variables and %d constraints, solver built for %d and %d",
			p.NumVars, len(p.Constraints), sf.nStruct, sf.m)
	}
	if err := validateData(p); err != nil {
		return nil, err
	}
	mSolves.Add(1)
	sp := mSolveNS.Span()
	defer sp.End()
	e.reset(ctx)
	sol, err := e.coldPath()
	mPivots.Add(int64(e.pivots))
	mPhase1.Add(int64(e.phase1Pivots))
	mDualPivots.Add(int64(e.dualPivots))
	if err != nil {
		return nil, err
	}
	sol.Pivots = e.pivots
	sol.Phase1Pivots = e.phase1Pivots
	return sol, nil
}

// init allocates the engine's storage for the standard form sf of p.
func (e *revised) init(p *Problem, sf *standard) {
	m := sf.m
	total := sf.nCols + m
	*e = revised{
		p:          p,
		sf:         sf,
		m:          m,
		artRows:    make([]int32, m),
		artVals:    make([]float64, m),
		cost:       make([]float64, total),
		ub:         make([]float64, total),
		canEnter:   make([]bool, total),
		atUpper:    make([]bool, total),
		basis:      make([]int, m),
		posOf:      make([]int, total),
		xB:         make([]float64, m),
		ubB:        make([]float64, m),
		lu:         newLU(m),
		rowScratch: make([]float64, m),
		posScratch: make([]float64, m),
		d:          make([]float64, m),
		y:          make([]float64, m),
		rho:        make([]float64, m),
		rhoMark:    make([]uint64, (m+63)/64),
		dualD:      make([]float64, sf.nCols),
		alpha:      make([]float64, sf.nCols),
		alphaCols:  make([]int32, 0, sf.nCols),
	}
	for r := range e.artRows {
		e.artRows[r] = int32(r)
	}
}

// reset readies the engine for a solve of p's current data: the RHS
// (into the standard form) and the bounds, with no basis, no column at
// its upper bound and every counter at zero — the state a new engine
// starts in. Everything else a solve reads it writes first: the crash
// sets the basis, the LU factor and the basic values, and the phases set
// the costs.
func (e *revised) reset(ctx context.Context) {
	p, sf := e.p, e.sf
	sf.setRHS(p)
	for j := range e.ub {
		e.ub[j] = math.Inf(1)
	}
	copy(e.ub, p.Upper)
	for j := 0; j < sf.nCols; j++ {
		e.canEnter[j] = sf.active[j] && e.ub[j] > 0
	}
	for r, b := range sf.b {
		e.artVals[r] = 1
		if b < 0 {
			e.artVals[r] = -1
		}
	}
	for j := range e.posOf {
		e.posOf[j] = -1
		e.atUpper[j] = false
	}
	e.pivots, e.phase1Pivots, e.dualPivots = 0, 0, 0
	e.pricePos, e.ctx = 0, ctx
}

// colFor returns the sparse entries of column id j (artificials live past
// sf.nCols).
func (e *revised) colFor(j int) ([]int32, []float64) {
	if j < e.sf.nCols {
		return e.sf.cols[j].rows, e.sf.cols[j].vals
	}
	r := j - e.sf.nCols
	return e.artRows[r : r+1], e.artVals[r : r+1]
}

// nonbasicValue is the value of nonbasic column j: its upper bound or 0.
func (e *revised) nonbasicValue(j int) float64 {
	if e.atUpper[j] {
		return e.ub[j]
	}
	return 0
}

func (e *revised) redCost(j int, y []float64) float64 {
	c := e.cost[j]
	rows, vals := e.colFor(j)
	for i, r := range rows {
		c -= y[r] * vals[i]
	}
	return c
}

// refactor rebuilds the LU factors from the current basis and recomputes
// the basic values.
func (e *revised) refactor() error {
	mRefactor.Add(1)
	for i, j := range e.basis {
		e.ubB[i] = e.ub[j]
	}
	if !e.lu.factor(func(pos int) ([]int32, []float64) { return e.colFor(e.basis[pos]) }) {
		return ErrSingularBasis
	}
	e.computeXB()
	return nil
}

// computeXB sets x_B = B⁻¹(b − Σ u_j A_j) over the nonbasic columns at
// their upper bound.
func (e *revised) computeXB() {
	copy(e.rowScratch, e.sf.b)
	for j := 0; j < e.sf.nCols; j++ {
		if !e.atUpper[j] {
			continue
		}
		u := e.ub[j]
		rows, vals := e.colFor(j)
		for i, r := range rows {
			e.rowScratch[r] -= u * vals[i]
		}
	}
	e.lu.ftran(e.rowScratch, e.xB)
}

func (e *revised) setPhase1Cost() {
	for j := range e.cost {
		e.cost[j] = 0
	}
	for r := 0; r < e.m; r++ {
		e.cost[e.sf.nCols+r] = 1
	}
}

func (e *revised) setPhase2Cost() {
	for j := range e.cost {
		e.cost[j] = 0
	}
	copy(e.cost, e.p.Objective)
}

// btranCost computes y = Bᵀ⁻¹ c_B into e.y.
func (e *revised) btranCost() {
	for i := 0; i < e.m; i++ {
		e.posScratch[i] = e.cost[e.basis[i]]
	}
	e.lu.btran(e.posScratch, e.y)
}

// btranRow computes ρ = Bᵀ⁻¹ e_pos into e.rho, hypersparsely, and lists
// its nonzero rows in e.rhoNZ, ascending (by a scan of the row bitset
// e.rhoMark, cheaper than a sort): row pos of B⁻¹A is ρ·A.
func (e *revised) btranRow(pos int) {
	for _, r := range e.rhoNZ {
		e.rho[r] = 0
	}
	nz := e.lu.btranUnit(pos, e.rho, e.rhoNZ[:0])
	for _, r := range nz {
		e.rhoMark[r>>6] |= 1 << (r & 63)
	}
	e.rhoNZ = appendMarked(nz[:0], e.rhoMark)
}

// ftranCol computes d = B⁻¹ A_q into e.d.
func (e *revised) ftranCol(q int) {
	rows, vals := e.colFor(q)
	e.lu.ftranCol(rows, vals, e.d)
}

// checkCtx enforces the cancellation contract every ctxEvery pivots.
func (e *revised) checkCtx() error {
	if e.pivots%ctxEvery == 0 {
		return e.ctx.Err()
	}
	return nil
}

// tick counts one simplex iteration.
func (e *revised) tick() {
	e.pivots++
	if e.onPivot != nil {
		e.onPivot()
	}
}

// moveEntering shifts the basic values for a change of delta in a
// nonbasic column whose FTRANed column is in e.d.
func (e *revised) moveEntering(delta float64) {
	if delta == 0 {
		return
	}
	for i := 0; i < e.m; i++ {
		if d := e.d[i]; d != 0 {
			e.xB[i] -= delta * d
		}
	}
}

// doPivot applies the basis exchange: entering column q, changed by
// delta from its bound to enterVal, replaces the column at basis
// position r. e.d must hold B⁻¹A_q, and the caller must already have
// recorded the bound the leaving column leaves at.
func (e *revised) doPivot(q, r int, delta, enterVal float64) error {
	e.moveEntering(delta)
	e.xB[r] = enterVal
	e.posOf[e.basis[r]] = -1
	e.basis[r], e.ubB[r] = q, e.ub[q]
	e.posOf[q] = r
	e.atUpper[q] = false
	e.tick()
	if len(e.lu.etas) >= refactorEvery || !e.lu.appendEta(r, e.d) {
		return e.refactor()
	}
	return nil
}

// primalGain is the rate at which moving nonbasic column j off its bound
// lowers the objective: −d_j from the lower bound, d_j from the upper.
func (e *revised) primalGain(j int) float64 {
	d := e.redCost(j, e.y)
	if e.atUpper[j] {
		return d
	}
	return -d
}

// chooseEnteringPrimal prices nonbasic columns: candidate-list partial
// pricing (Dantzig within a rotating section) before blandAfter pivots,
// Bland's lowest-index rule after.
func (e *revised) chooseEnteringPrimal() int {
	total := e.sf.nCols
	if e.pivots >= blandAfter {
		for j := 0; j < total; j++ {
			if e.canEnter[j] && e.posOf[j] < 0 && e.primalGain(j) > tol {
				return j
			}
		}
		return -1
	}
	section := total / 8
	if section < 64 {
		section = 64
	}
	for scanned := 0; scanned < total; {
		best, bestVal := -1, tol
		for k := 0; k < section && scanned < total; k++ {
			j := e.pricePos
			e.pricePos++
			if e.pricePos >= total {
				e.pricePos = 0
			}
			scanned++
			if !e.canEnter[j] || e.posOf[j] >= 0 {
				continue
			}
			if v := e.primalGain(j); v > bestVal {
				best, bestVal = j, v
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// ratioPivTol is the minimum pivot element magnitude accepted by the
// ratio tests; it sits above the eta-update stability threshold so an
// accepted pivot can always be applied.
const ratioPivTol = 1e-7

// chooseLeavingPrimal runs the bounded primal ratio test on e.d for an
// entering column moving in direction dir (+1 up from its lower bound,
// −1 down from its upper) whose own bound range is uq. Each basic
// variable blocks at 0 or at its upper bound; ties on ratio within tol
// break by lowest basis column id, and the accepted ratio never creeps
// above the true minimum. It returns the blocking position, the step
// and whether the leaving variable stops at its upper bound; a position
// of -1 means the entering column flips to its other bound (step uq),
// or, with an infinite step, that the problem is unbounded.
func (e *revised) chooseLeavingPrimal(dir, uq float64) (int, float64, bool) {
	bestPos := -1
	bestRatio := math.Inf(1)
	bestUp := false
	for i := 0; i < e.m; i++ {
		di := dir * e.d[i]
		var ratio float64
		up := false
		switch {
		case di > ratioPivTol:
			x := e.xB[i]
			if x < 0 {
				x = 0 // roundoff: degenerate, not improving
			}
			ratio = x / di
		case di < -ratioPivTol:
			u := e.ub[e.basis[i]]
			if math.IsInf(u, 1) {
				continue
			}
			room := u - e.xB[i]
			if room < 0 {
				room = 0
			}
			ratio, up = room/-di, true
		default:
			continue
		}
		switch {
		case ratio < bestRatio-tol:
			bestRatio, bestPos, bestUp = ratio, i, up
		case ratio < bestRatio+tol:
			if ratio < bestRatio {
				bestRatio = ratio
			}
			if bestPos < 0 || e.basis[i] < e.basis[bestPos] {
				bestPos, bestUp = i, up
			}
		}
	}
	if uq <= bestRatio {
		return -1, uq, false
	}
	return bestPos, bestRatio, bestUp
}

// primal runs primal simplex iterations until optimality; phase1 solves
// cannot be unbounded.
func (e *revised) primal(phase1 bool) error {
	maxIter := 20000 + 50*(e.m+e.sf.nCols)
	for iter := 0; iter < maxIter; iter++ {
		if err := e.checkCtx(); err != nil {
			return err
		}
		e.btranCost()
		q := e.chooseEnteringPrimal()
		if q < 0 {
			return nil // optimal
		}
		e.ftranCol(q)
		dir := 1.0
		if e.atUpper[q] {
			dir = -1
		}
		r, step, toUpper := e.chooseLeavingPrimal(dir, e.ub[q])
		if r < 0 {
			if math.IsInf(step, 1) {
				if phase1 {
					return fmt.Errorf("lp: phase-1 unbounded (internal error)")
				}
				return errUnbounded
			}
			// Bound flip: the entering column crosses its whole range
			// before any basic variable blocks; the basis is unchanged.
			e.moveEntering(dir * step)
			e.atUpper[q] = !e.atUpper[q]
			e.tick()
			continue
		}
		leave := e.basis[r]
		enterVal := e.nonbasicValue(q) + dir*step
		e.atUpper[leave] = toUpper && e.ub[leave] > 0
		if err := e.doPivot(q, r, dir*step, enterVal); err != nil {
			return err
		}
	}
	return ErrIterationLimit
}

// driveOutArtificials pivots zero-level basic artificials out after
// phase 1 (degenerate pivots, attributed to phase 1). It returns false if
// an artificial is stuck basic at a nonzero level (infeasible). Rows
// whose artificial admits no pivot are redundant; their artificial stays
// basic at zero, barred from ever carrying value again.
func (e *revised) driveOutArtificials() (bool, error) {
	for pos := 0; pos < e.m; pos++ {
		if e.basis[pos] < e.sf.nCols {
			continue
		}
		if math.Abs(e.xB[pos]) > feasTol {
			return false, nil
		}
		// Any allowed nonbasic column with ρ·A_j ≠ 0 can replace the
		// artificial in a zero-length pivot.
		e.btranRow(pos)
		for j := 0; j < e.sf.nCols; j++ {
			if !e.canEnter[j] || e.posOf[j] >= 0 {
				continue
			}
			alpha := 0.0
			rows, vals := e.colFor(j)
			for i, r := range rows {
				alpha += e.rho[r] * vals[i]
			}
			if math.Abs(alpha) <= ratioPivTol {
				continue
			}
			e.ftranCol(j)
			if math.Abs(e.d[pos]) <= ratioPivTol {
				continue
			}
			if err := e.doPivot(j, pos, 0, e.nonbasicValue(j)); err != nil {
				return false, err
			}
			break
		}
	}
	return true, nil
}

// crash sets the cold-start basis with every nonbasic column at 0: each
// row is covered by the cheapest singleton column whose value b_r/a_rj
// lies within its bounds — the row's slack/surplus or a structural
// column appearing in that row only — with ties to the lowest column
// id. Rows no such column covers get their artificial. It returns the
// number of artificials. With none, the basis is primal feasible, so
// primal phase 2 can start from it when no bound placement is dual
// feasible; centre may then re-pick each row.
func (e *revised) crash() int {
	sf := e.sf
	for r := range e.basis {
		e.basis[r] = -1
	}
	for j := 0; j < sf.nCols; j++ {
		col := &sf.cols[j]
		if !e.canEnter[j] || len(col.rows) != 1 {
			continue
		}
		r := int(col.rows[0])
		v := sf.b[r] / col.vals[0]
		if v < 0 || v > e.ub[j] {
			continue
		}
		if cur := e.basis[r]; cur < 0 || e.cost[j] < e.cost[cur] {
			e.basis[r] = j
			e.xB[r] = v
		}
	}
	numArt := 0
	for r, j := range e.basis {
		if j < 0 {
			e.basis[r] = sf.nCols + r
			e.xB[r] = math.Abs(sf.b[r])
			numArt++
		}
		e.posOf[e.basis[r]] = r
	}
	return numArt
}

// centre re-picks the basic singleton of each row of a crash that
// needed no artificials, for a start nearer the optimum: of the
// singletons that cost what the crash's pick costs, it keeps one whose
// value lies within its bounds when every boxed non-singleton column
// sits at the midpoint of its range (and the rest at 0) — the crash's
// pick if that one does, else the lowest column id, else the crash's
// pick all the same. On an L1 fit that starts each row on the error
// column of the side its RHS falls: e⁺ below the row's value at x = ½,
// e⁻ above it. A row's lone singleton of its cost, such as the
// zero-cost absorber of an open decoding row, stays. It reports whether
// any row changed.
func (e *revised) centre() bool {
	sf := e.sf
	res := e.rowScratch // each row's RHS less its boxed columns' midpoints
	copy(res, sf.b)
	for j := 0; j < sf.nCols; j++ {
		col := &sf.cols[j]
		if len(col.rows) == 1 || !e.canEnter[j] || math.IsInf(e.ub[j], 1) {
			continue
		}
		h := e.ub[j] / 2
		for k, r := range col.rows {
			res[r] -= h * col.vals[k]
		}
	}
	fits := func(j int) bool {
		col := &sf.cols[j]
		v := res[col.rows[0]] / col.vals[0]
		return v >= 0 && v <= e.ub[j]
	}
	moved := false
	for j := 0; j < sf.nCols; j++ {
		col := &sf.cols[j]
		if !e.canEnter[j] || len(col.rows) != 1 {
			continue
		}
		r := int(col.rows[0])
		cur := e.basis[r]
		if cur == j || e.cost[j] != e.cost[cur] || fits(cur) || !fits(j) {
			continue
		}
		e.posOf[cur], e.posOf[j] = -1, r
		e.basis[r], moved = j, true
	}
	return moved
}

// coldPath solves from the crash basis: phase 1 over the artificials of
// uncovered rows, if any, then the primal simplex; or, when the crash
// needed no artificials, the dual simplex from the centred basis (see
// centreDual).
func (e *revised) coldPath() (*Solution, error) {
	e.setPhase2Cost() // the crash prefers cheap singletons
	if e.crash() == 0 {
		return e.centreDual()
	}
	if err := e.refactor(); err != nil {
		return nil, err
	}
	e.setPhase1Cost()
	if err := e.primal(true); err != nil {
		return nil, err
	}
	infeasSum := 0.0
	for pos := 0; pos < e.m; pos++ {
		if e.basis[pos] >= e.sf.nCols {
			infeasSum += math.Abs(e.xB[pos])
		}
	}
	if infeasSum > feasTol {
		e.phase1Pivots = e.pivots
		mInfeasible.Add(1)
		return &Solution{Status: Infeasible}, nil
	}
	ok, err := e.driveOutArtificials()
	e.phase1Pivots = e.pivots
	if err != nil {
		return nil, err
	}
	if !ok {
		mInfeasible.Add(1)
		return &Solution{Status: Infeasible}, nil
	}
	e.setPhase2Cost()
	return e.finish()
}

// centreDual solves from a crash that covered every row. Every column
// is then at a bound or basic at a singleton, so the boxed columns can
// be placed where their reduced costs are dual feasible unless an
// unbounded column prices negative, and the dual simplex from there
// takes a fraction of the pivots primal phase 2 takes on the L1
// decoding LPs, with no heavy tail. It starts from the centred basis,
// which on the decoding LPs takes about half the crash's pivots. That
// basis need not be primal feasible, so when it has no dual-feasible
// placement the solve goes back to the crash's basis, which is.
func (e *revised) centreDual() (*Solution, error) {
	centred := e.centre()
	if err := e.refactor(); err != nil {
		return nil, err
	}
	placed := e.placeDualFeasible()
	if !placed && centred {
		for _, j := range e.basis {
			e.posOf[j] = -1
		}
		e.crash()
		if err := e.refactor(); err != nil {
			return nil, err
		}
		placed = e.placeDualFeasible()
	}
	if placed {
		if sol, err := e.dual(); sol != nil || err != nil {
			return sol, err
		}
	}
	return e.finish()
}

// finish runs primal phase 2 from a primal feasible basis (basic values
// clamped into their bounds against drift) and extracts the solution.
func (e *revised) finish() (*Solution, error) {
	for i, v := range e.xB {
		if u := e.ub[e.basis[i]]; v > u {
			e.xB[i] = u
		} else if v < 0 {
			e.xB[i] = 0
		}
	}
	if err := e.primal(false); err != nil {
		if errors.Is(err, errUnbounded) {
			mUnbounded.Add(1)
			return &Solution{Status: Unbounded}, nil
		}
		return nil, err
	}
	return e.extract(), nil
}

// placeDualFeasible refreshes the reduced costs and moves every boxed
// nonbasic column to the bound its reduced cost prices it at — the upper
// bound when d_j < 0, the lower when d_j > 0 — recomputing the basic
// values if any moved. It reports false, and moves nothing, when an
// unbounded column prices negative: then no bound placement makes the
// basis dual feasible.
func (e *revised) placeDualFeasible() bool {
	// refreshDualD leaves e.dualD zero but at the nonbasic columns that
	// can enter, so only those pass the tolerance tests below.
	e.refreshDualD()
	for j, dj := range e.dualD {
		if dj < -feasTol && math.IsInf(e.ub[j], 1) {
			return false
		}
	}
	moved := false
	for j, dj := range e.dualD {
		if up := dj < 0; up != e.atUpper[j] && math.Abs(dj) > feasTol {
			e.atUpper[j], moved = up, true
		}
	}
	if moved {
		e.computeXB()
	}
	return true
}

// refreshDualD recomputes the reduced costs e.dualD of the nonbasic
// columns that can enter from scratch (one BTRAN plus one pass over A),
// and zeroes every other entry. The dual simplex keeps it incrementally
// updated between refactorizations.
func (e *revised) refreshDualD() {
	clear(e.dualD)
	e.btranCost()
	for j := range e.dualD {
		if e.canEnter[j] && e.posOf[j] < 0 {
			e.dualD[j] = e.redCost(j, e.y)
		}
	}
}

// chooseLeavingDual picks the dual simplex's leaving row: the basic
// variable furthest outside its bounds, or — in bland mode — the
// infeasible one with the lowest column id. below reports whether it
// lies under its lower bound (else above its upper); r = -1 means the
// basis is primal feasible.
func (e *revised) chooseLeavingDual(bland bool) (r int, below bool) {
	r = -1
	worst := feasTol
	for i, v := range e.xB {
		infeas, lo := -v, true
		if u := e.ubB[i]; v-u > infeas {
			infeas, lo = v-u, false
		}
		if infeas <= feasTol {
			continue
		}
		if bland {
			if r < 0 || e.basis[i] < e.basis[r] {
				r, below = i, lo
			}
		} else if infeas > worst {
			worst, r, below = infeas, i, lo
		}
	}
	return r, below
}

// dualCand is one eligible column of the dual ratio test: its
// breakpoint (the dual step at which its reduced cost reaches zero) and
// |α_j|, the rate at which moving it repairs the leaving row.
type dualCand struct {
	j         int
	ratio, as float64
}

// dual runs dual simplex pivots until primal feasibility. It returns a
// non-nil Solution only for a definitive terminal status (Infeasible).
// e.dualD must be fresh (refreshDualD) on entry. Each iteration costs
// one hypersparse BTRAN (the pivot row ρ), one pass over the rows of A
// where ρ is nonzero, one FTRAN (the entering column, O(1) before the
// eta replay for most unit columns, plus one for the bound flips of a
// long step) and one scan of the basic values for the leaving row. The
// ratio test and the reduced-cost update visit only the columns the
// pivot row wrote.
func (e *revised) dual() (*Solution, error) {
	maxIter := 20000 + 50*(e.m+e.sf.nCols)
	alpha := e.alpha
	degenRun := 0 // consecutive pivots with no dual-objective progress
	for iter := 0; iter < maxIter; iter++ {
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		bland := degenRun >= dualBlandRun
		r, below := e.chooseLeavingDual(bland)
		if r < 0 {
			return nil, nil // primal feasible — optimal after drift check
		}
		leaveCol := e.basis[r]
		target := 0.0
		if !below {
			target = e.ub[leaveCol]
		}
		// The ratio test runs on the cached reduced costs against row r
		// of B⁻¹A.
		e.btranRow(r)
		e.alphaCols = e.sf.pivotRow(e.rho, e.rhoNZ, alpha, e.alphaCols)
		e.cands = e.dualCands(alpha, e.alphaCols, below, e.cands[:0])
		q, ratio := e.longStep(e.cands, math.Abs(e.xB[r]-target), bland, &e.flips)
		if q < 0 {
			// Dual unbounded: the primal is infeasible.
			mInfeasible.Add(1)
			return &Solution{Status: Infeasible}, nil
		}
		if ratio > tol {
			degenRun = 0
		} else {
			degenRun++
		}
		e.ftranCol(q)
		if math.Abs(e.d[r]) <= luMinPivot {
			if err := e.refactor(); err != nil {
				return nil, err
			}
			e.refreshDualD()
			continue
		}
		if len(e.flips) > 0 {
			// Move every passed boxed column to its other bound; their
			// reduced costs change sign at this dual step, so the new
			// bounds keep them dual feasible.
			for i := range e.rowScratch {
				e.rowScratch[i] = 0
			}
			for _, j := range e.flips {
				step := e.ub[j]
				if e.atUpper[j] {
					step = -step
				}
				e.atUpper[j] = !e.atUpper[j]
				rows, vals := e.colFor(j)
				for i, rr := range rows {
					e.rowScratch[rr] += step * vals[i]
				}
			}
			e.lu.ftran(e.rowScratch, e.posScratch)
			for i, w := range e.posScratch {
				e.xB[i] -= w
			}
		}
		// The entering column moves until the leaving variable reaches
		// the bound it violated.
		delta := (e.xB[r] - target) / e.d[r]
		enterVal := e.nonbasicValue(q) + delta
		// Reduced-cost update from the pivot row: d_j ← d_j − (d_q/α_q)·α_j
		// for nonbasic j; the leaving variable re-enters the nonbasic set
		// with cost −d_q/α_q.
		thetaD := e.dualD[q] / alpha[q]
		e.dualPivots++
		e.atUpper[leaveCol] = !below && target > 0
		if err := e.doPivot(q, r, delta, enterVal); err != nil {
			return nil, err
		}
		if len(e.lu.etas) == 0 {
			// doPivot refactorized: resync the cache instead of updating it.
			e.refreshDualD()
			continue
		}
		// Every other column has α_j = 0. q is basic now and leaveCol,
		// if it can enter, nonbasic; its update is overwritten below.
		for _, j := range e.alphaCols {
			if aj := alpha[j]; aj != 0 && e.canEnter[j] && e.posOf[j] < 0 {
				e.dualD[j] -= thetaD * aj
			}
		}
		e.dualD[q] = 0
		if leaveCol < e.sf.nCols && e.canEnter[leaveCol] {
			e.dualD[leaveCol] = -thetaD
		}
	}
	return nil, ErrIterationLimit
}

// dualCands appends to cands the columns eligible for the dual ratio
// test on the pivot row alpha, in the order cols lists them, for a
// leaving variable below its lower bound (else above its upper): each
// nonbasic column that can enter and whose move off its bound pushes
// the leaving variable back toward the violated bound, by more than
// ratioPivTol per unit. alpha must be zero at every column cols omits,
// so that no such column is eligible.
func (e *revised) dualCands(alpha []float64, cols []int32, below bool, cands []dualCand) []dualCand {
	for _, j := range cols {
		if !e.canEnter[j] || e.posOf[j] >= 0 {
			continue
		}
		s, dj := alpha[j], e.dualD[j]
		if below {
			s = -s
		}
		if e.atUpper[j] {
			s, dj = -s, -dj
		}
		if s <= ratioPivTol {
			continue
		}
		if dj < 0 {
			dj = 0 // clamp drift: dual feasibility is an invariant here
		}
		cands = append(cands, dualCand{j: int(j), ratio: dj / s, as: s})
	}
	return cands
}

// longStep is the dual ratio test over the eligible columns (in
// ascending column order), for a leaving row infeasible by infeas. The
// textbook test enters the column with the smallest breakpoint — ties
// within tol to the lowest id, with the accepted ratio kept at the true
// minimum. The long-step (bound-flipping) test walks the breakpoints in
// that order instead: while the row would stay infeasible with a boxed
// column moved across its whole range, that column flips to its other
// bound (appended to *flips) and the walk goes on, since the dual
// objective still improves past its breakpoint. In bland mode no column
// flips. It returns the entering column and its breakpoint, or q = -1
// when the row cannot be repaired (the primal is infeasible).
func (e *revised) longStep(cands []dualCand, infeas float64, bland bool, flips *[]int) (q int, ratio float64) {
	*flips = (*flips)[:0]
	// A step flips well under one column on average on the decoding LPs,
	// so repeated selection beats sorting the breakpoints.
	for len(cands) > 0 {
		k, best := 0, cands[0].ratio
		for i := 1; i < len(cands); i++ {
			if r := cands[i].ratio; r < best-tol {
				k, best = i, r
			} else if r < best {
				best = r
			}
		}
		c := cands[k]
		if u := e.ub[c.j]; bland || math.IsInf(u, 1) || infeas-c.as*u <= feasTol {
			return c.j, best
		}
		infeas -= c.as * e.ub[c.j]
		*flips = append(*flips, c.j)
		cands = append(cands[:k], cands[k+1:]...)
	}
	return -1, 0
}

func (e *revised) extract() *Solution {
	x := make([]float64, e.sf.nStruct)
	for j := range x {
		x[j] = e.nonbasicValue(j)
	}
	for pos, j := range e.basis {
		if j < e.sf.nStruct {
			x[j] = e.xB[pos]
		}
	}
	obj := 0.0
	for j, c := range e.p.Objective {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}
}
