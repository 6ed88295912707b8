package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrBasisMismatch is returned by Revised when the warm-start Basis was
// produced on a different constraint matrix (the warm-start contract
// covers RHS, objective and bound changes only).
var ErrBasisMismatch = errors.New("lp: warm-start basis does not match the constraint structure")

// ErrSingularBasis is returned when the engine cannot keep a numerically
// nonsingular basis factorization (indicative of a pathological instance
// or a bug).
var ErrSingularBasis = errors.New("lp: numerically singular basis")

// Basis is an opaque warm-start handle: the basic column set at the end
// of a Revised solve and the nonbasic columns that sat at their upper
// bound, tied by signature to the constraint matrix it was produced on.
// Pass it to a later Revised call over the same constraint matrix — same
// coefficients and relations; the RHS, objective and bounds may differ —
// to start from that basis instead of from scratch.
type Basis struct {
	sig   uint64
	m     int
	cols  []int
	upper []int // nonbasic columns at their upper bound, ascending
}

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
	// test runs on the unperturbed reduced costs, and on the massively
	// degenerate L1-fitting LPs a warm start that tightens many rows at
	// once can set Dantzig cycling; least-index selection (with the ratio
	// test's lowest-column tie-break) is provably finite.
	dualBlandRun = 256
)

// revised is the sparse revised-simplex engine state for one solve.
type revised struct {
	p  *Problem
	sf *standard
	m  int

	artCols  []spCol   // artificial singleton columns (factor access)
	cost     []float64 // current phase objective, indexed by column id
	ub       []float64 // upper bound by column id (artificials +Inf)
	canEnter []bool    // active, non-fixed structural or row-variable column
	atUpper  []bool    // nonbasic column sits at its upper bound
	basis    []int     // basis position -> column id
	posOf    []int     // column id -> basis position, -1 if nonbasic
	xB       []float64 // basic variable values by position
	lu       *luFactor

	pivots       int
	phase1Pivots int
	dualPivots   int
	phase        int
	warm         bool

	ctx           context.Context
	progress      func(Progress)
	progressEvery int
	pricePos      int // partial-pricing cursor

	// Scratch (reused across iterations).
	rowScratch []float64 // row-indexed FTRAN/BTRAN input
	posScratch []float64 // position-indexed BTRAN input
	d          []float64 // FTRAN output (position-indexed)
	y          []float64 // BTRAN output (row-indexed)
	dualD      []float64 // dual simplex's cached nonbasic reduced costs
}

// Revised solves p with the sparse bounded-variable revised simplex:
// column-wise sparse constraint storage, implicit bounds 0 ≤ x ≤ Upper,
// an LU-factorized basis with product-form updates between periodic
// refactorizations, candidate-list partial pricing, a singleton crash
// that skips phase 1 whenever every row has a singleton column, and
// Bland fallbacks for termination.
//
// Numerical contract: the engine relaxes each inequality by a tiny
// anti-degeneracy perturbation, so the returned point may violate the
// stated constraints by up to ~1e-5 for problems with up to ~1000 rows;
// equalities are not perturbed.
//
// warm may be nil (cold start) or the Basis of a previous Revised solve
// over the same constraint matrix. A usable warm basis skips the crash
// and phase 1 entirely: if it is still primal feasible under the new
// RHS and bounds the solve resumes in phase 2, and otherwise (the common
// case after an RHS or bound change at an optimum) the engine places
// each boxed nonbasic variable at the bound its reduced cost prefers and
// runs the dual simplex until primal feasibility is restored. A warm
// basis that cannot be reused (singular under the new data, containing
// artificials, or dual infeasible on an unbounded column) falls back to
// a cold start; a basis from a *different* matrix is an ErrBasisMismatch
// error.
//
// The returned Solution carries the final Basis for Optimal solves. The
// context is checked every ProgressEvery pivots.
func Revised(ctx context.Context, p *Problem, warm *Basis) (*Solution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	mSolves.Add(1)
	sp := mSolveNS.Span()
	defer sp.End()
	sf := buildStandard(p)
	if warm != nil && (warm.sig != sf.sig || warm.m != sf.m) {
		return nil, fmt.Errorf("%w: basis for %d rows/sig %x, matrix has %d rows/sig %x",
			ErrBasisMismatch, warm.m, warm.sig, sf.m, sf.sig)
	}
	e := newRevised(ctx, p, sf)
	sol, err := e.run(warm)
	mPivots.Add(int64(e.pivots))
	mPhase1.Add(int64(e.phase1Pivots))
	mDualPivots.Add(int64(e.dualPivots))
	if err != nil {
		return nil, err
	}
	sol.Pivots = e.pivots
	sol.Phase1Pivots = e.phase1Pivots
	sol.Warm = e.warm
	if sol.Status == Optimal {
		sol.Basis = e.saveBasis()
	}
	return sol, nil
}

// saveBasis returns the warm-start handle of the current basis.
func (e *revised) saveBasis() *Basis {
	b := &Basis{sig: e.sf.sig, m: e.m, cols: append([]int(nil), e.basis...)}
	for j := 0; j < e.sf.nCols; j++ {
		if e.atUpper[j] {
			b.upper = append(b.upper, j)
		}
	}
	return b
}

func newRevised(ctx context.Context, p *Problem, sf *standard) *revised {
	m := sf.m
	total := sf.nCols + m
	e := &revised{
		p:             p,
		sf:            sf,
		m:             m,
		artCols:       make([]spCol, m),
		cost:          make([]float64, total),
		ub:            make([]float64, total),
		canEnter:      make([]bool, total),
		atUpper:       make([]bool, total),
		basis:         make([]int, m),
		posOf:         make([]int, total),
		xB:            make([]float64, m),
		lu:            newLU(m),
		ctx:           ctx,
		progress:      p.Progress,
		progressEvery: p.ProgressEvery,
		rowScratch:    make([]float64, m),
		posScratch:    make([]float64, m),
		d:             make([]float64, m),
		y:             make([]float64, m),
	}
	if e.progressEvery <= 0 {
		e.progressEvery = 4096
	}
	copy(e.ub, sf.ub)
	for j := 0; j < sf.nCols; j++ {
		e.canEnter[j] = sf.active[j] && sf.ub[j] > 0
	}
	for r := 0; r < m; r++ {
		e.ub[sf.nCols+r] = math.Inf(1)
		s := 1.0
		if sf.b[r] < 0 {
			s = -1
		}
		e.artCols[r] = spCol{rows: []int32{int32(r)}, vals: []float64{s}}
	}
	for j := range e.posOf {
		e.posOf[j] = -1
	}
	return e
}

func (e *revised) run(warm *Basis) (*Solution, error) {
	if warm != nil {
		sol, ok, err := e.warmPath(warm)
		if err != nil {
			return nil, err
		}
		if ok {
			return sol, nil
		}
		mWarmMiss.Add(1)
		e.resetBasis()
	}
	return e.coldPath()
}

// resetBasis clears basis bookkeeping after a failed warm attempt.
func (e *revised) resetBasis() {
	for j := range e.posOf {
		e.posOf[j] = -1
		e.atUpper[j] = false
	}
	e.pricePos = 0
	e.warm = false
}

// colFor returns the sparse entries of column id j (artificials live past
// sf.nCols).
func (e *revised) colFor(j int) ([]int32, []float64) {
	if j < e.sf.nCols {
		return e.sf.cols[j].rows, e.sf.cols[j].vals
	}
	c := &e.artCols[j-e.sf.nCols]
	return c.rows, c.vals
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

// btranRow computes ρ = Bᵀ⁻¹ e_pos into e.y: row pos of B⁻¹A is ρ·A.
func (e *revised) btranRow(pos int) {
	for i := range e.posScratch {
		e.posScratch[i] = 0
	}
	e.posScratch[pos] = 1
	e.lu.btran(e.posScratch, e.y)
}

// ftranCol computes d = B⁻¹ A_q into e.d.
func (e *revised) ftranCol(q int) {
	for i := range e.rowScratch {
		e.rowScratch[i] = 0
	}
	rows, vals := e.colFor(q)
	for i, r := range rows {
		e.rowScratch[r] = vals[i]
	}
	e.lu.ftran(e.rowScratch, e.d)
}

// checkCtx enforces the cancellation contract at the progress cadence.
func (e *revised) checkCtx() error {
	if e.pivots%e.progressEvery == 0 {
		return e.ctx.Err()
	}
	return nil
}

// tick counts one simplex iteration and drives the Progress hook.
func (e *revised) tick() {
	e.pivots++
	if e.progress != nil && e.pivots%e.progressEvery == 0 {
		e.progress(Progress{Phase: e.phase, Pivots: e.pivots})
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
	e.basis[r] = q
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
				alpha += e.y[r] * vals[i]
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
// number of artificials.
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

// coldPath solves from the crash basis: phase 1 over the artificials of
// uncovered rows, if any, then phase 2 — by the dual simplex from a
// dual-feasible bound placement when the crash needed no artificials and
// one exists, by the primal simplex otherwise.
func (e *revised) coldPath() (*Solution, error) {
	e.setPhase2Cost() // the crash prefers cheap singletons
	numArt := e.crash()
	if err := e.refactor(); err != nil {
		return nil, err
	}
	if numArt > 0 {
		e.phase = 1
		if e.progress != nil {
			e.progress(Progress{Phase: 1, Pivots: e.pivots})
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
	}
	e.phase = 2
	if e.progress != nil {
		e.progress(Progress{Phase: 2, Pivots: e.pivots})
	}
	// With no artificials, every column is at a bound or basic at a
	// singleton, and the boxed columns can always be placed where their
	// reduced costs are dual feasible: the dual simplex from there takes
	// a fraction of the pivots primal phase 2 takes on the L1 decoding
	// LPs, with no heavy tail.
	if numArt == 0 && e.placeDualFeasible() {
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

// primalFeasible reports whether every basic value lies within its
// bounds (to feasTol).
func (e *revised) primalFeasible() bool {
	for i, v := range e.xB {
		if v < -feasTol || v > e.ub[e.basis[i]]+feasTol {
			return false
		}
	}
	return true
}

// warmPath attempts to reuse a prior basis. ok=false means the basis was
// structurally acceptable but numerically unusable (or contains
// artificials, or is dual infeasible on an unbounded column) — the
// caller falls back to a cold start.
func (e *revised) warmPath(warm *Basis) (*Solution, bool, error) {
	if len(warm.cols) != e.m {
		return nil, false, fmt.Errorf("%w: basis has %d columns for %d rows", ErrBasisMismatch, len(warm.cols), e.m)
	}
	for _, j := range warm.cols {
		if j < 0 || j >= e.sf.nCols || !e.sf.active[j] || e.posOf[j] >= 0 {
			// Artificial, inactive or duplicated column: not reusable.
			for k := range e.posOf {
				e.posOf[k] = -1
			}
			return nil, false, nil
		}
		e.posOf[j] = 0 // mark for duplicate detection; fixed below
	}
	for i, j := range warm.cols {
		e.basis[i] = j
		e.posOf[j] = i
	}
	for _, j := range warm.upper {
		// A column whose bound became infinite (or zero) drops to 0.
		if e.posOf[j] < 0 && e.canEnter[j] && !math.IsInf(e.ub[j], 1) {
			e.atUpper[j] = true
		}
	}
	if err := e.refactor(); err != nil {
		if errors.Is(err, ErrSingularBasis) {
			return nil, false, nil
		}
		return nil, false, err
	}
	e.setPhase2Cost()
	e.phase = 2
	if !e.primalFeasible() {
		// The usual warm case after an RHS or bound change at an optimum:
		// still dual feasible once the boxed columns sit at the bounds
		// their reduced costs prefer, so restore primal feasibility with
		// the dual simplex instead of rerunning phase 1.
		if !e.placeDualFeasible() {
			return nil, false, nil
		}
		e.startWarm()
		sol, err := e.dual()
		if sol != nil || err != nil {
			return sol, true, err
		}
	} else {
		e.startWarm()
	}
	sol, err := e.finish()
	if err != nil {
		return nil, false, err
	}
	return sol, true, nil
}

func (e *revised) startWarm() {
	mWarmStarts.Add(1)
	e.warm = true
	if e.progress != nil {
		e.progress(Progress{Phase: 2, Pivots: e.pivots})
	}
}

// placeDualFeasible refreshes the reduced costs and moves every boxed
// nonbasic column to the bound its reduced cost prices it at — the upper
// bound when d_j < 0, the lower when d_j > 0 — recomputing the basic
// values if any moved. It reports false, and moves nothing, when an
// unbounded column prices negative: then no bound placement makes the
// basis dual feasible.
func (e *revised) placeDualFeasible() bool {
	e.refreshDualD()
	for j := 0; j < e.sf.nCols; j++ {
		if e.canEnter[j] && e.posOf[j] < 0 && e.dualD[j] < -feasTol && math.IsInf(e.ub[j], 1) {
			return false
		}
	}
	moved := false
	for j := 0; j < e.sf.nCols; j++ {
		if !e.canEnter[j] || e.posOf[j] >= 0 {
			continue
		}
		if up := e.dualD[j] < 0; up != e.atUpper[j] && math.Abs(e.dualD[j]) > feasTol {
			e.atUpper[j], moved = up, true
		}
	}
	if moved {
		e.computeXB()
	}
	return true
}

// refreshDualD recomputes the full nonbasic reduced-cost vector e.dualD
// from scratch (one BTRAN plus one pass over A). The dual simplex keeps
// it incrementally updated between refactorizations.
func (e *revised) refreshDualD() {
	if e.dualD == nil {
		e.dualD = make([]float64, e.sf.nCols)
	}
	e.btranCost()
	for j := 0; j < e.sf.nCols; j++ {
		if e.canEnter[j] && e.posOf[j] < 0 {
			e.dualD[j] = e.redCost(j, e.y)
		} else {
			e.dualD[j] = 0
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
		if u := e.ub[e.basis[i]]; v-u > infeas {
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
// e.dualD must be fresh (refreshDualD) on entry; each iteration costs one
// BTRAN (the pivot row), one FTRAN (the entering column, plus one for
// the bound flips of a long step) and one pass over the rows of A where
// the pivot row's ρ is nonzero, with reduced costs updated in place from
// the pivot row.
func (e *revised) dual() (*Solution, error) {
	maxIter := 20000 + 50*(e.m+e.sf.nCols)
	alpha := make([]float64, e.sf.nCols)
	var cands []dualCand
	var flips []int
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
		// of B⁻¹A. A column is eligible when moving it off its bound
		// pushes the leaving variable back toward the violated bound.
		e.btranRow(r)
		e.sf.pivotRow(e.y, alpha)
		cands = cands[:0]
		for j := 0; j < e.sf.nCols; j++ {
			if !e.canEnter[j] || e.posOf[j] >= 0 {
				alpha[j] = 0
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
			cands = append(cands, dualCand{j: j, ratio: dj / s, as: s})
		}
		q, ratio := e.longStep(cands, math.Abs(e.xB[r]-target), bland, &flips)
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
		if len(flips) > 0 {
			// Move every passed boxed column to its other bound; their
			// reduced costs change sign at this dual step, so the new
			// bounds keep them dual feasible.
			for i := range e.rowScratch {
				e.rowScratch[i] = 0
			}
			for _, j := range flips {
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
		for j := 0; j < e.sf.nCols; j++ {
			if aj := alpha[j]; aj != 0 && e.posOf[j] < 0 {
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
