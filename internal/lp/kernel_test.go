package lp

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/synth"
)

// factorRef is luFactor.factor with its elimination looping over every
// earlier step j < k, the reference that the reach-only loop must
// reproduce bit for bit. It leaves f as factor does.
func factorRef(f *luFactor, column func(pos int) ([]int32, []float64)) bool {
	m := f.m
	f.etas = f.etas[:0]
	for i := 0; i < m; i++ {
		f.posOfRow[i] = -1
	}
	refs := make([]colRef, m)
	for i := 0; i < m; i++ {
		rows, _ := column(i)
		refs[i] = colRef{pos: i, nnz: len(rows)}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].nnz != refs[b].nnz {
			return refs[a].nnz < refs[b].nnz
		}
		return refs[a].pos < refs[b].pos
	})
	for k := 0; k < m; k++ {
		f.colOrder[k] = refs[k].pos
		rows, vals := column(refs[k].pos)
		f.touched = f.touched[:0]
		for i, r := range rows {
			f.work[r] = vals[i]
			if !f.inWork[r] {
				f.inWork[r] = true
				f.touched = append(f.touched, r)
			}
		}
		var uPos []int32
		var uVals []float64
		for j := 0; j < k; j++ {
			t := f.work[f.rowOfPos[j]]
			if t == 0 {
				continue
			}
			uPos = append(uPos, int32(j))
			uVals = append(uVals, t)
			lr, lv := f.lIdx[j], f.lVals[j]
			for i, r := range lr {
				f.work[r] -= lv[i] * t
				if !f.inWork[r] {
					f.inWork[r] = true
					f.touched = append(f.touched, r)
				}
			}
		}
		pivRow, pivAbs := -1, luMinPivot
		for _, r := range f.touched {
			if f.posOfRow[r] >= 0 {
				continue
			}
			if a := math.Abs(f.work[r]); a > pivAbs {
				pivAbs, pivRow = a, int(r)
			}
		}
		if pivRow < 0 {
			f.clearWork()
			return false
		}
		piv := f.work[pivRow]
		f.uDiag[k] = piv
		f.uPos[k], f.uVals[k] = uPos, uVals
		var lr []int32
		var lv []float64
		for _, r := range f.touched {
			if f.posOfRow[r] >= 0 || int(r) == pivRow {
				continue
			}
			if v := f.work[r]; v != 0 {
				lr = append(lr, r)
				lv = append(lv, v/piv)
			}
		}
		f.lIdx[k], f.lVals[k] = lr, lv
		f.rowOfPos[k] = pivRow
		f.posOfRow[pivRow] = k
		f.clearWork()
	}
	for k := range f.lIdx {
		for i, r := range f.lIdx[k] {
			f.lIdx[k][i] = int32(f.posOfRow[r])
		}
	}
	f.uRows.transpose(m, m, func(k int) ([]int32, []float64) { return f.uPos[k], f.uVals[k] })
	return true
}

// pivotRowRef is the dual ratio test's pivot row as a column-wise dot
// product over every entry of A, zeros of ρ included: the reference
// that standard.pivotRow must reproduce bit for bit.
func pivotRowRef(sf *standard, rho, alpha []float64) {
	for j := range sf.cols {
		a := 0.0
		col := &sf.cols[j]
		for i, r := range col.rows {
			a += rho[r] * col.vals[i]
		}
		alpha[j] = a
	}
}

// pivotRowDense is standard.pivotRow on a dense ρ: it lists ρ's nonzero
// rows, ascending, and starts from an all-zero alpha. It returns the
// columns written.
func pivotRowDense(sf *standard, rho, alpha []float64) []int32 {
	var rows []int32
	for r, y := range rho {
		if y != 0 {
			rows = append(rows, int32(r))
		}
	}
	clear(alpha)
	return sf.pivotRow(rho, rows, alpha, nil)
}

// dualCandsRef is the dual ratio test's eligible set found by a scan of
// every column: each nonbasic column that can enter, with dualCands'
// breakpoint and rate.
func dualCandsRef(e *revised, alpha []float64, below bool) []dualCand {
	var cands []dualCand
	for j := 0; j < e.sf.nCols; j++ {
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
			dj = 0
		}
		cands = append(cands, dualCand{j: j, ratio: dj / s, as: s})
	}
	return cands
}

// chooseLeavingDualRef is chooseLeavingDual reading each basic column's
// upper bound through the basis, ub[basis[i]].
func chooseLeavingDualRef(e *revised, bland bool) (r int, below bool) {
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

// btranRef is btran with its Uᵀ solve as a dot product over each
// column of U, zeros included.
func btranRef(f *luFactor, c, out []float64) {
	m := f.m
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := &f.etas[e]
		s := 0.0
		for i, p := range et.rows {
			s += et.vals[i] * c[p]
		}
		c[et.pos] = (c[et.pos] - s) / et.pivot
	}
	g := f.solve
	for k := 0; k < m; k++ {
		s := c[f.colOrder[k]]
		up, uv := f.uPos[k], f.uVals[k]
		for i, p := range up {
			s -= uv[i] * g[p]
		}
		g[k] = s / f.uDiag[k]
	}
	for k := m - 1; k >= 0; k-- {
		lp, lv := f.lIdx[k], f.lVals[k]
		s := g[k]
		for i, p := range lp {
			s -= lv[i] * g[p]
		}
		g[k] = s
	}
	for k := 0; k < m; k++ {
		out[f.rowOfPos[k]] = g[k]
	}
}

// ftranRef is ftran with its U back-substitution scattering every z_k,
// zeros included.
func ftranRef(f *luFactor, v, out []float64) {
	m := f.m
	tmp := f.solve
	for k := 0; k < m; k++ {
		tmp[k] = v[f.rowOfPos[k]]
	}
	for k := 0; k < m; k++ {
		t := tmp[k]
		if t == 0 {
			continue
		}
		lp, lv := f.lIdx[k], f.lVals[k]
		for i, p := range lp {
			tmp[p] -= lv[i] * t
		}
	}
	for k := m - 1; k >= 0; k-- {
		zk := tmp[k] / f.uDiag[k]
		tmp[k] = zk
		up, uv := f.uPos[k], f.uVals[k]
		for i, p := range up {
			tmp[p] -= uv[i] * zk
		}
	}
	for k := 0; k < m; k++ {
		out[f.colOrder[k]] = tmp[k]
	}
	for e := range f.etas {
		f.applyEta(&f.etas[e], out)
	}
}

// kernelChecker compares the sparse kernels with their references on
// every state of a solve: the LU factors and eta file at each pivot.
type kernelChecker struct {
	t              *testing.T
	states, etaful int
	// applied counts the earlier steps that eliminated into a column,
	// scanned the steps factorRef's loop over every j < k looks at.
	applied, scanned int
	// units counts the unit BTRANs checked, unitNZ their nonzeros and
	// alphaCols the columns their pivot rows wrote.
	units, unitNZ, alphaCols int
	// cols counts the column FTRANs checked, unitCols those that took
	// the O(1) path, and etafulUnit those of them replaying etas.
	cols, unitCols, etafulUnit int
	// cands is checkEligible's scratch.
	cands []dualCand
	// dualPivots is the engine's dual pivot count at the last check, obj
	// the objective there, and run the dual pivots since then that left
	// the objective where it was (degenerate ones). longestRun is the
	// longest such run seen, and blandPivots counts the pivots of a run
	// past its first dualBlandRun, which the dual takes in Bland mode.
	dualPivots, run, longestRun, blandPivots int
	obj                                      float64
}

// trackDegenerate updates the run of degenerate dual pivots at a
// pivot: one whose dual step left the objective at its last value, to
// a relative 1e-9.
func (kc *kernelChecker) trackDegenerate(e *revised) {
	obj := 0.0
	for i, j := range e.basis {
		obj += e.cost[j] * e.xB[i]
	}
	for j, up := range e.atUpper {
		if up {
			obj += e.cost[j] * e.ub[j]
		}
	}
	switch {
	case e.dualPivots != kc.dualPivots+1:
		kc.run = 0 // a new solve, or a primal pivot
	case math.Abs(obj-kc.obj) <= 1e-9*(1+math.Abs(obj)):
		kc.run++
		if kc.run > dualBlandRun {
			kc.blandPivots++
		}
		kc.longestRun = max(kc.longestRun, kc.run)
	default:
		kc.run = 0
	}
	kc.dualPivots, kc.obj = e.dualPivots, obj
}

func (kc *kernelChecker) sameInts(what string, got, want []int32) {
	kc.t.Helper()
	if !slices.Equal(got, want) {
		kc.t.Fatalf("%s: %v, reference %v", what, got, want)
	}
}

// checkFactor factors the current basis with factor and with factorRef
// and compares both orders, the diagonal and every L and U entry.
func (kc *kernelChecker) checkFactor(e *revised) {
	kc.t.Helper()
	m := e.m
	column := func(pos int) ([]int32, []float64) { return e.colFor(e.basis[pos]) }
	got, want := newLU(m), newLU(m)
	okGot, okWant := got.factor(column), factorRef(want, column)
	if okGot != okWant {
		kc.t.Fatalf("factor nonsingular = %v, reference %v", okGot, okWant)
	}
	if !okGot {
		return
	}
	if !slices.Equal(got.rowOfPos, want.rowOfPos) || !slices.Equal(got.colOrder, want.colOrder) {
		kc.t.Fatalf("factor orders: rows %v cols %v, reference rows %v cols %v",
			got.rowOfPos, got.colOrder, want.rowOfPos, want.colOrder)
	}
	kc.sameBits("U diagonal", got.uDiag, want.uDiag)
	for k := 0; k < m; k++ {
		kc.sameInts("U positions", got.uPos[k], want.uPos[k])
		kc.sameBits("U values", got.uVals[k], want.uVals[k])
		kc.sameInts("L positions", got.lIdx[k], want.lIdx[k])
		kc.sameBits("L values", got.lVals[k], want.lVals[k])
		kc.applied += len(got.uPos[k])
		kc.scanned += k
	}
}

// checkLeaving checks the position-indexed bounds against the bounds
// read through the basis, and compares the dual's leaving row, in both
// modes, with a scan that reads them so.
func (kc *kernelChecker) checkLeaving(e *revised) {
	kc.t.Helper()
	for i, j := range e.basis {
		if math.Float64bits(e.ubB[i]) != math.Float64bits(e.ub[j]) {
			kc.t.Fatalf("basic bound at position %d = %v, column %d's bound %v", i, e.ubB[i], j, e.ub[j])
		}
	}
	for _, bland := range []bool{false, true} {
		r, below := e.chooseLeavingDual(bland)
		rRef, belowRef := chooseLeavingDualRef(e, bland)
		if r != rRef || below != belowRef {
			kc.t.Fatalf("leaving row (bland %v) %d below %v, reference %d below %v", bland, r, below, rRef, belowRef)
		}
	}
}

// checkPivotRow compares the pivot row alpha that pivotRow wrote, with
// its column list cols, against pivotRowRef's alphaRef: every column bit
// for bit, and a list that is strictly ascending and holds every column
// whose α_j is nonzero.
func (kc *kernelChecker) checkPivotRow(what string, alpha, alphaRef []float64, cols []int32) {
	kc.t.Helper()
	kc.sameBits(what, alpha, alphaRef)
	for i := 1; i < len(cols); i++ {
		if cols[i] <= cols[i-1] {
			kc.t.Fatalf("%s: column list %v is not strictly ascending", what, cols)
		}
	}
	for j, a := range alphaRef {
		if a == 0 {
			continue
		}
		if _, ok := slices.BinarySearch(cols, int32(j)); !ok {
			kc.t.Fatalf("%s: column %d has α = %v but is not listed", what, j, a)
		}
	}
}

// checkEligible checks that the dual ratio test's eligible set over the
// columns cols of the pivot row alpha equals the set dualCandsRef's scan
// of every column finds on the reference row alphaRef, on either side of
// the leaving bound: the same columns in the same order, with the same
// breakpoints and rates bit for bit.
func (kc *kernelChecker) checkEligible(e *revised, alpha, alphaRef []float64, cols []int32) {
	kc.t.Helper()
	for _, below := range []bool{false, true} {
		kc.cands = e.dualCands(alpha, cols, below, kc.cands[:0])
		got, want := kc.cands, dualCandsRef(e, alphaRef, below)
		if len(got) != len(want) {
			kc.t.Fatalf("%d eligible columns (below %v), full scan %d", len(got), below, len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.j != w.j || math.Float64bits(g.ratio) != math.Float64bits(w.ratio) || math.Float64bits(g.as) != math.Float64bits(w.as) {
				kc.t.Fatalf("eligible column %d (below %v) = %+v, full scan %+v", i, below, g, w)
			}
		}
	}
}

// checkEngineLists checks the pivot-row state the engine keeps between
// pivots, as its last btranRow and pivotRow left it: rhoNZ lists the
// nonzero rows of ρ strictly ascending, and alpha is zero at every
// column alphaCols, strictly ascending, omits (so that the next pivot
// row need clear only those).
func (kc *kernelChecker) checkEngineLists(e *revised) {
	kc.t.Helper()
	for _, list := range [][]int32{e.rhoNZ, e.alphaCols} {
		for i := 1; i < len(list); i++ {
			if list[i] <= list[i-1] {
				kc.t.Fatalf("engine list %v is not strictly ascending", list)
			}
		}
	}
	listed := 0
	for r, v := range e.rho {
		if _, ok := slices.BinarySearch(e.rhoNZ, int32(r)); ok {
			listed++
			if v == 0 {
				kc.t.Fatalf("ρ row %d is listed but zero", r)
			}
		} else if v != 0 {
			kc.t.Fatalf("ρ row %d = %v is not listed", r, v)
		}
	}
	if listed != len(e.rhoNZ) {
		kc.t.Fatalf("ρ's row list %v holds rows out of range", e.rhoNZ)
	}
	for j, a := range e.alpha {
		if _, ok := slices.BinarySearch(e.alphaCols, int32(j)); !ok && math.Float64bits(a) != 0 {
			kc.t.Fatalf("pivot row column %d = %v is not listed", j, a)
		}
	}
}

// firstNonzeroDiff returns the first entry at which got and want differ
// in a nonzero's bits or in being zero, or -1: a zero's sign is ignored.
func firstNonzeroDiff(got, want []float64) int {
	for i, w := range want {
		if g := got[i]; (g == 0) != (w == 0) || w != 0 && math.Float64bits(g) != math.Float64bits(w) {
			return i
		}
	}
	return -1
}

// checkFtranCol runs ftranCol on every column, artificials included,
// against ftranRef on the column scattered into a dense vector: every
// nonzero bit for bit and the same nonzero pattern. The zero entries'
// signs are not compared: the O(1) path leaves +0 wherever the dense
// U solve divides a zero by a negative diagonal, and no reader of an
// FTRANed column sees that sign.
func (kc *kernelChecker) checkFtranCol(e *revised) {
	kc.t.Helper()
	f, m := e.lu, e.m
	in, out, outRef := make([]float64, m), make([]float64, m), make([]float64, m)
	for j := 0; j < e.sf.nCols+m; j++ {
		rows, vals := e.colFor(j)
		clear(in)
		for i, r := range rows {
			in[r] = vals[i]
		}
		f.ftranCol(rows, vals, out)
		ftranRef(f, in, outRef)
		if i := firstNonzeroDiff(out, outRef); i >= 0 {
			kc.t.Fatalf("ftran of column %d: entry %d = %v (%#x), reference %v (%#x)",
				j, i, out[i], math.Float64bits(out[i]), outRef[i], math.Float64bits(outRef[i]))
		}
		kc.cols++
		if len(rows) == 1 {
			if k := f.posOfRow[rows[0]]; len(f.lIdx[k]) == 0 && len(f.uPos[k]) == 0 {
				kc.unitCols++
				if len(f.etas) > 0 {
					kc.etafulUnit++
				}
			}
		}
	}
}

func (kc *kernelChecker) sameBits(what string, got, want []float64) {
	kc.t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			kc.t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkUnit compares btranUnit's ρ = B⁻ᵀe_pos with btranRef's, outRef:
// every nonzero bit for bit, the same nonzero pattern with its rows
// listed once each, and the pivot row the dual forms from those rows,
// sorted, against the reference's (checkPivotRow). The zero entries' own
// signs are not compared: btranUnit leaves +0 wherever btran's dense
// order computes a zero, and no consumer of ρ reads that sign. It also
// checks that btranUnit left its scratch all zero.
func (kc *kernelChecker) checkUnit(e *revised, pos int, outRef []float64) {
	kc.t.Helper()
	f, sf := e.lu, e.sf
	rho := make([]float64, e.m)
	nz := f.btranUnit(pos, rho, nil)
	listed := make([]bool, e.m)
	for _, r := range nz {
		if listed[r] {
			kc.t.Fatalf("unit btran e_%d: row %d listed twice", pos, r)
		}
		listed[r] = true
	}
	for i, want := range outRef {
		got := rho[i]
		switch {
		case want == 0 && got != 0:
			kc.t.Fatalf("unit btran e_%d: entry %d = %v, reference zero", pos, i, got)
		case want != 0 && math.Float64bits(got) != math.Float64bits(want):
			kc.t.Fatalf("unit btran e_%d: entry %d = %v (%#x), reference %v (%#x)",
				pos, i, got, math.Float64bits(got), want, math.Float64bits(want))
		case listed[i] != (want != 0):
			kc.t.Fatalf("unit btran e_%d: row %d listed %v, reference entry %v", pos, i, listed[i], want)
		}
	}
	alpha, alphaRef := make([]float64, sf.nCols), make([]float64, sf.nCols)
	slices.Sort(nz)
	cols := sf.pivotRow(rho, nz, alpha, nil)
	pivotRowRef(sf, outRef, alphaRef)
	kc.checkPivotRow("pivot row of the unit btran", alpha, alphaRef, cols)
	kc.checkEligible(e, alpha, alphaRef, cols)
	for _, scratch := range [][]float64{f.unitPos, f.unitStep} {
		if i := slices.IndexFunc(scratch, func(v float64) bool { return v != 0 }); i >= 0 {
			kc.t.Fatalf("unit btran e_%d left scratch entry %d = %v", pos, i, scratch[i])
		}
	}
	if i := slices.IndexFunc(f.reach, func(w uint64) bool { return w != 0 }); i >= 0 {
		kc.t.Fatalf("unit btran e_%d left reach word %d = %#x", pos, i, f.reach[i])
	}
	kc.units++
	kc.unitNZ += len(nz)
	kc.alphaCols += len(cols)
}

// check runs BTRAN on every unit vector and on the basic costs, the
// pivot row on each result, and FTRAN on each result (these carry −0
// entries) and on b; the hypersparse BTRAN on every unit vector
// (checkUnit); ftranCol on every column (checkFtranCol); the dual's
// leaving row (checkLeaving); and the engine's own pivot-row lists
// (checkEngineLists).
func (kc *kernelChecker) check(e *revised) {
	kc.t.Helper()
	kc.states++
	if len(e.lu.etas) > 0 {
		kc.etaful++
	}
	kc.checkFactor(e)
	kc.checkLeaving(e)
	kc.checkEngineLists(e)
	kc.checkFtranCol(e)
	m, sf := e.m, e.sf
	in, inRef := make([]float64, m), make([]float64, m)
	out, outRef := make([]float64, m), make([]float64, m)
	alpha, alphaRef := make([]float64, sf.nCols), make([]float64, sf.nCols)
	ftran := func() {
		kc.t.Helper()
		copy(inRef, in)
		e.lu.ftran(in, out)
		ftranRef(e.lu, inRef, outRef)
		kc.sameBits("ftran", out, outRef)
	}
	for pos := 0; pos <= m; pos++ {
		for i := range in {
			in[i] = 0
			if pos == m {
				in[i] = e.cost[e.basis[i]]
			}
		}
		if pos < m {
			in[pos] = 1
		}
		copy(inRef, in)
		e.lu.btran(in, out)
		btranRef(e.lu, inRef, outRef)
		kc.sameBits("btran", out, outRef)
		cols := pivotRowDense(sf, out, alpha)
		pivotRowRef(sf, out, alphaRef)
		kc.checkPivotRow("pivot row", alpha, alphaRef, cols)
		if pos < m {
			kc.checkUnit(e, pos, outRef)
		}
		copy(in, out)
		ftran()
	}
	copy(in, sf.b)
	ftran()
}

// solver builds p's Solver with the kernel check hooked to every pivot.
func (kc *kernelChecker) solver(p *Problem) *Solver {
	kc.t.Helper()
	s, err := NewSolver(p)
	if err != nil {
		kc.t.Fatal(err)
	}
	s.e.onPivot = func() {
		kc.trackDegenerate(&s.e)
		kc.check(&s.e)
	}
	return s
}

// solve runs s, a Solver from kc.solver, checking the kernels at every
// pivot and at the end.
func (kc *kernelChecker) solve(s *Solver) *Solution {
	kc.t.Helper()
	kc.dualPivots = -1
	sol, err := s.Solve(ctx)
	if err != nil {
		kc.t.Fatal(err)
	}
	kc.check(&s.e)
	return sol
}

// TestSparseKernelsMatchReference: the reach-only factor, the pivot row
// over ρ's nonzero rows and the zero-skipping BTRAN and FTRAN reproduce
// the dense-order loops bit for bit; the hypersparse unit BTRAN and the
// column FTRAN, with its O(1) path for unit columns, reproduce every
// nonzero; the ratio test's eligible set over the pivot row's columns
// matches a scan of every column; and the leaving row read through the
// position-indexed bounds matches one read through the basis. All on
// every basis the engine passes through for the property test's LPs,
// the FuzzRevised seeds (solved, changed and re-solved on the same
// Solver), an L1 decoding LP re-solved on one Solver across noisy
// answer vectors, a decoding LP of 96 rows, two decodes at the lp-recon
// benchmark's shape, and a streamed session whose pushes, with most
// rows still open, take long degenerate dual runs in Bland mode.
func TestSparseKernelsMatchReference(t *testing.T) {
	kc := &kernelChecker{t: t}
	for trial := 0; trial < 120; trial++ {
		kc.solve(kc.solver(boxedProblem(par.RNG(11, trial), trial%2 == 0)))
	}
	for trial := 120; trial < 360; trial++ {
		kc.solve(kc.solver(boundedProblem(par.RNG(11, trial), trial%2 == 0)))
	}
	for _, seed := range fuzzRevisedSeeds {
		p, change := fuzzProblem(seed)
		s := kc.solver(p)
		kc.solve(s)
		change(p)
		kc.solve(s)
	}
	rng := par.RNG(5, 0)
	m := 48
	qRows, answers := subsetRows(rng, 12, m)
	open := make([]bool, m)
	p := l1EqualityProblem(qRows, answers, open)
	s := kc.solver(p)
	for round := 0; round < 5; round++ {
		noisy := make([]float64, m)
		for k := range noisy {
			noisy[k] = answers[k] + rng.NormFloat64()*float64(round)
		}
		setData(p, l1EqualityProblem(qRows, noisy, open))
		kc.solve(s)
	}
	// A decode at n = 24, m = 4n: most basis columns are e± unit
	// columns, which the reach loop skips.
	qRows, answers = subsetRows(rng, 24, 96)
	for k := range answers {
		answers[k] += rng.Float64() - 0.5
	}
	if sol := kc.solve(kc.solver(l1EqualityProblem(qRows, answers, make([]bool, 96)))); sol.Pivots == 0 {
		t.Fatal("the 96-row decode took no pivots")
	}
	// Decodes at lp-recon's shape (n = 48, m = 4n) of answers with
	// bounded noise at c·√n: their unit entering columns take the O(1)
	// FTRAN with eta files of up to refactorEvery entries.
	n := 48
	rngQ := rand.New(rand.NewSource(1))
	qs := query.RandomSubsets(rngQ, n, 4*n)
	x := synth.BinaryDataset(rngQ, n, 0.5)
	qRows = make([][]float64, len(qs))
	for k, q := range qs {
		qRows[k] = make([]float64, n)
		for _, i := range q {
			qRows[k][i] = 1
		}
	}
	for _, c := range []float64{0.25, 2} {
		o := &query.BoundedNoise{X: x, Alpha: c * math.Sqrt(float64(n)), Rng: rngQ}
		a, err := o.Answer(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		if sol := kc.solve(kc.solver(l1EqualityProblem(qRows, a, make([]bool, len(qs))))); sol.Pivots == 0 {
			t.Fatalf("the lp-recon decode at c = %v took no pivots", c)
		}
	}
	// A streamed session of exact answers at n = 20, m = 4n, answered 2
	// at a time, the open rows' absorbers at their bound n, every push on
	// the one Solver. With few rows answered, many x price at exactly 0,
	// and the dual runs on at breakpoint 0 until Bland's rule takes the
	// leaving row: here in the third push (about 370 pivots, 106 of them
	// in Bland mode). Seed 25 is the first at this size whose session
	// does; the session takes about 1,100 pivots in all.
	n = 20
	rngQ = rand.New(rand.NewSource(25))
	qs = query.RandomSubsets(rngQ, n, 4*n)
	x = synth.BinaryDataset(rngQ, n, 0.5)
	qRows, answers = make([][]float64, len(qs)), make([]float64, len(qs))
	for k, q := range qs {
		qRows[k] = make([]float64, n)
		for _, i := range q {
			qRows[k][i] = 1
			answers[k] += float64(x[i])
		}
	}
	open = make([]bool, len(qRows))
	p = l1EqualityProblem(qRows, answers, open)
	s = kc.solver(p)
	for answered := 2; answered <= len(qRows); answered += 2 {
		for k := range open {
			open[k] = k >= answered
		}
		setData(p, l1EqualityProblem(qRows, answers, open))
		kc.solve(s)
	}
	if kc.blandPivots == 0 {
		t.Errorf("no dual run reached Bland mode: the longest took %d degenerate pivots, want more than %d", kc.longestRun, dualBlandRun)
	}
	if kc.etaful == 0 {
		t.Fatalf("none of %d states had an eta file", kc.states)
	}
	if kc.etafulUnit == 0 {
		t.Fatalf("none of %d O(1) column FTRANs replayed an eta file", kc.unitCols)
	}
	t.Logf("%d states checked, %d with a non-empty eta file; %d of the %d elimination steps the reference scans applied an update; %d unit BTRANs with %d nonzeros, whose pivot rows wrote %d columns; %d column FTRANs, %d on the O(1) path (%d with etas); %d degenerate dual pivots in Bland mode, the longest degenerate run %d",
		kc.states, kc.etaful, kc.applied, kc.scanned, kc.units, kc.unitNZ, kc.alphaCols, kc.cols, kc.unitCols, kc.etafulUnit, kc.blandPivots, kc.longestRun)
}

// TestFtranColDenseBasis: on a dense basis, step 0 has an empty U
// column but a full L column, so a unit column in its pivot row must
// not take the O(1) path. ftranCol of every unit column, and of every
// basis column, must match ftranRef's nonzeros.
func TestFtranColDenseBasis(t *testing.T) {
	rng := par.RNG(3, 0)
	const m = 6
	cols := make([]spCol, m)
	for j := range cols {
		for i := 0; i < m; i++ {
			cols[j].add(i, 0.5+rng.Float64())
		}
	}
	f := newLU(m)
	if !f.factor(func(pos int) ([]int32, []float64) { return cols[pos].rows, cols[pos].vals }) {
		t.Fatal("the dense basis factored as singular")
	}
	if len(f.uPos[0]) != 0 || len(f.lIdx[0]) != m-1 {
		t.Fatalf("step 0 has %d U and %d L entries, want 0 and %d", len(f.uPos[0]), len(f.lIdx[0]), m-1)
	}
	in, out, outRef := make([]float64, m), make([]float64, m), make([]float64, m)
	for j := 0; j < 2*m; j++ {
		rows, vals := []int32{int32(j)}, []float64{1}
		if j >= m {
			rows, vals = cols[j-m].rows, cols[j-m].vals
		}
		clear(in)
		for i, r := range rows {
			in[r] = vals[i]
		}
		f.ftranCol(rows, vals, out)
		ftranRef(f, in, outRef)
		if i := firstNonzeroDiff(out, outRef); i >= 0 {
			t.Fatalf("ftran of column %d: entry %d = %v, reference %v", j, i, out[i], outRef[i])
		}
	}
}
