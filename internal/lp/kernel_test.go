package lp

import (
	"math"
	"slices"
	"sort"
	"testing"

	"singlingout/internal/par"
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
	// units counts the unit BTRANs checked, unitNZ their nonzeros.
	units, unitNZ int
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

// checkEnter compares the engine's candidate list with a scan of every
// column.
func (kc *kernelChecker) checkEnter(e *revised) {
	kc.t.Helper()
	var want []int
	for j := 0; j < e.sf.nCols; j++ {
		if e.canEnter[j] && e.posOf[j] < 0 {
			want = append(want, j)
		}
	}
	if !slices.Equal(e.enter, want) {
		kc.t.Fatalf("candidate list %v, full scan %v", e.enter, want)
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
// listed once each, and the pivot row of each bit for bit, signed zeros
// included. The zero entries' own signs are not compared: btranUnit
// leaves +0 wherever btran's dense order computes a zero, and no
// consumer of ρ reads that sign. It also checks that btranUnit left its
// scratch all zero.
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
	sf.pivotRow(rho, alpha)
	pivotRowRef(sf, outRef, alphaRef)
	kc.sameBits("pivot row of the unit btran", alpha, alphaRef)
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
}

// check runs BTRAN on every unit vector and on the basic costs, the
// pivot row on each result, and FTRAN on each result (these carry −0
// entries), on every column and on b; and the hypersparse BTRAN on
// every unit vector (checkUnit).
func (kc *kernelChecker) check(e *revised) {
	kc.t.Helper()
	kc.states++
	if len(e.lu.etas) > 0 {
		kc.etaful++
	}
	kc.checkFactor(e)
	kc.checkEnter(e)
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
		sf.pivotRow(out, alpha)
		pivotRowRef(sf, out, alphaRef)
		kc.sameBits("pivot row", alpha, alphaRef)
		if pos < m {
			kc.checkUnit(e, pos, outRef)
		}
		copy(in, out)
		ftran()
	}
	for j := 0; j <= sf.nCols; j++ {
		if j < sf.nCols {
			for i := range in {
				in[i] = 0
			}
			for i, r := range sf.cols[j].rows {
				in[r] = sf.cols[j].vals[i]
			}
		} else {
			copy(in, sf.b)
		}
		ftran()
	}
}

// solver builds p's Solver with the kernel check hooked to every pivot.
func (kc *kernelChecker) solver(p *Problem) *Solver {
	kc.t.Helper()
	s, err := NewSolver(p)
	if err != nil {
		kc.t.Fatal(err)
	}
	s.e.onPivot = func() { kc.check(&s.e) }
	return s
}

// solve runs s, a Solver from kc.solver, cold or warm, checking the
// kernels at every pivot and at the end.
func (kc *kernelChecker) solve(s *Solver, warm bool) *Solution {
	kc.t.Helper()
	sol, err := s.Solve(ctx, warm)
	if err != nil {
		kc.t.Fatal(err)
	}
	kc.check(&s.e)
	return sol
}

// TestSparseKernelsMatchReference: the reach-only factor, the row-wise
// pivot row and the zero-skipping BTRAN and FTRAN reproduce the
// dense-order loops bit for bit, the hypersparse unit BTRAN reproduces
// every nonzero and the pivot row, and the candidate list matches a scan
// of every column, on every basis the engine passes through for the
// property test's LPs, the FuzzRevised seeds (cold and warm), an L1
// decoding LP warm-started across noisy answer vectors and a cold
// decoding LP of 96 rows.
func TestSparseKernelsMatchReference(t *testing.T) {
	kc := &kernelChecker{t: t}
	for trial := 0; trial < 120; trial++ {
		kc.solve(kc.solver(boxedProblem(par.RNG(11, trial), trial%2 == 0)), false)
	}
	for trial := 120; trial < 360; trial++ {
		kc.solve(kc.solver(boundedProblem(par.RNG(11, trial), trial%2 == 0)), false)
	}
	for _, seed := range fuzzRevisedSeeds {
		p, change := fuzzProblem(seed)
		s := kc.solver(p)
		if cold := kc.solve(s, false); cold.Status != Optimal {
			continue
		}
		change(p)
		kc.solve(s, true)
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
		kc.solve(s, round > 0)
	}
	// A cold decode at n = 24, m = 4n: most basis columns are e± unit
	// columns, which the reach loop skips.
	qRows, answers = subsetRows(rng, 24, 96)
	for k := range answers {
		answers[k] += rng.Float64() - 0.5
	}
	if sol := kc.solve(kc.solver(l1EqualityProblem(qRows, answers, make([]bool, 96))), false); sol.Pivots == 0 {
		t.Fatal("the cold 96-row decode took no pivots")
	}
	if kc.etaful == 0 {
		t.Fatalf("none of %d states had an eta file", kc.states)
	}
	t.Logf("%d states checked, %d with a non-empty eta file; %d of the %d elimination steps the reference scans applied an update; %d unit BTRANs with %d nonzeros",
		kc.states, kc.etaful, kc.applied, kc.scanned, kc.units, kc.unitNZ)
}
