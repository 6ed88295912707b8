package lp

import (
	"math"
	"math/bits"
	"slices"
)

// luFactor is a sparse LU factorization of the m×m basis matrix B with
// partial pivoting, plus the product-form eta file accumulated by pivots
// since the last (re)factorization:
//
//	B · colPerm = rowPerm⁻¹ · L · U,   B_now = B · E_1 · E_2 · … · E_k
//
// Columns are factored sparsest-first (slack and error columns of the
// reconstruction LPs are singletons/doubletons, structural columns are
// dense-ish), which keeps fill-in low without a full Markowitz search.
// FTRAN/BTRAN solve through the factors and then replay the eta file;
// refactorization truncates the file and restores full accuracy.
type luFactor struct {
	m int
	// Row pivoting: rowOfPos[k] is the original row eliminated at step k;
	// posOfRow is its inverse.
	rowOfPos []int
	posOfRow []int
	// colOrder[k] is the basis position whose column was factored at
	// step k.
	colOrder []int
	// L columns (unit diagonal implicit): the entries of column k lie in
	// rows not yet pivoted at step k. While factor runs, lIdx holds their
	// original rows; factor ends by rewriting each as the row's
	// elimination position (always > k), the index FTRAN and BTRAN use.
	lIdx  [][]int32
	lVals [][]float64
	// U columns: entries (elimination position j < k, value) and the
	// diagonal.
	uPos  [][]int32
	uVals [][]float64
	uDiag []float64
	// uRows holds the same off-diagonal U entries row by row: row j
	// lists the later positions k > j whose column has an entry at j.
	uRows csr
	// lRows holds the L entries row by row: row p lists the steps k < p
	// whose column has an entry at position p (values unused). It is the
	// reach of btranUnit's Lᵀ solve.
	lRows csr
	// lSteps lists, ascending, the steps whose L column is non-empty: the
	// only steps FTRAN's L solve can apply.
	lSteps []int32
	// stepOf is colOrder's inverse: the step that factored basis
	// position pos.
	stepOf []int
	// etas is the product-form update file: eta e replaces basis position
	// e.pos; e.rows/e.vals are the position-indexed nonzeros of the
	// FTRANed entering column other than its pivot, e.pivot its value at
	// e.pos.
	etas []eta

	work    []float64 // dense scratch, len m; all zero between calls
	touched []int32
	inWork  []bool
	// reach is a bitset over elimination positions: while column k is
	// factored, bit j < k is set when the pivot row of step j has been
	// written in work, so the elimination visits only those steps;
	// btranUnit marks the steps its solves visit in it. All zero between
	// columns and between calls.
	reach []uint64
	refs  []colRef  // factor's column order scratch, len m
	solve []float64 // ftran/btran scratch in elimination order, len m

	// btranUnit's scratch, all zero between calls: unitPos is indexed by
	// basis position (the eta replay) and unitStep by elimination step
	// (the Uᵀ and Lᵀ solves). unitNZ lists the entries of unitPos that
	// may be nonzero, ascending; unitSteps the steps written in unitStep.
	unitPos   []float64
	unitStep  []float64
	unitNZ    []int32
	unitSteps []int32
}

type eta struct {
	pos   int
	pivot float64
	rows  []int32
	vals  []float64
	// dense holds the same entries by position, zero elsewhere and at
	// pos, so btranUnit's replay costs the nonzeros of its vector, not
	// of the eta.
	dense []float64
}

// colRef is a basis position and its column's nonzero count.
type colRef struct{ pos, nnz int }

// luMinPivot is the singularity threshold for factorization pivots.
const luMinPivot = 1e-10

func newLU(m int) *luFactor {
	return &luFactor{
		m:        m,
		rowOfPos: make([]int, m),
		posOfRow: make([]int, m),
		colOrder: make([]int, m),
		lIdx:     make([][]int32, m),
		lVals:    make([][]float64, m),
		uPos:     make([][]int32, m),
		uVals:    make([][]float64, m),
		uDiag:    make([]float64, m),
		work:     make([]float64, m),
		touched:  make([]int32, 0, m),
		inWork:   make([]bool, m),
		reach:    make([]uint64, (m+63)/64),
		refs:     make([]colRef, m),
		solve:    make([]float64, m),
		stepOf:   make([]int, m),
		lSteps:   make([]int32, 0, m),
		unitPos:  make([]float64, m),
		unitStep: make([]float64, m),
	}
}

// factor (re)builds the LU decomposition of the basis described by
// column, a position→sparse-column accessor. It returns false when the
// basis matrix is numerically singular. The eta file is cleared.
//
// The elimination is left-looking: column k is reduced by each earlier
// step j whose pivot row holds a nonzero of the working column, in
// ascending j. A step whose pivot row was never written holds an exact
// zero there and would be skipped anyway, so visiting only the steps
// the reach bitset marks applies the same updates in the same order as
// a loop over every j < k, bit for bit.
func (f *luFactor) factor(column func(pos int) ([]int32, []float64)) bool {
	m := f.m
	f.etas = f.etas[:0]
	for i := 0; i < m; i++ {
		f.posOfRow[i] = -1
	}
	// Sparsest columns first: their pivots eliminate rows without creating
	// fill for the denser columns factored later.
	refs := f.refs
	for i := range refs {
		rows, _ := column(i)
		refs[i] = colRef{pos: i, nnz: len(rows)}
	}
	slices.SortFunc(refs, func(a, b colRef) int {
		if a.nnz != b.nnz {
			return a.nnz - b.nnz
		}
		return a.pos - b.pos
	})
	for k := 0; k < m; k++ {
		f.colOrder[k] = refs[k].pos
		rows, vals := column(refs[k].pos)
		// Scatter the column into the dense workspace.
		f.touched = f.touched[:0]
		for i, r := range rows {
			f.work[r] = vals[i]
			f.touch(r)
		}
		// Left-looking elimination by the steps the column reaches. Each
		// applied L column marks only later steps, so scanning the bitset
		// upward, re-reading the current word, visits them in order.
		uPos := f.uPos[k][:0]
		uVals := f.uVals[k][:0]
		for w := range f.reach[:(k+63)/64] {
			for f.reach[w] != 0 {
				b := bits.TrailingZeros64(f.reach[w])
				f.reach[w] &^= 1 << b
				j := w<<6 | b
				t := f.work[f.rowOfPos[j]]
				if t == 0 {
					continue
				}
				uPos = append(uPos, int32(j))
				uVals = append(uVals, t)
				lr, lv := f.lIdx[j], f.lVals[j]
				for i, r := range lr {
					f.work[r] -= lv[i] * t
					f.touch(r)
				}
			}
		}
		// Partial pivoting over the rows not yet eliminated.
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
		lr := f.lIdx[k][:0]
		lv := f.lVals[k][:0]
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
	f.lSteps = f.lSteps[:0]
	for k, lr := range f.lIdx {
		for i, r := range lr {
			lr[i] = int32(f.posOfRow[r])
		}
		if len(lr) > 0 {
			f.lSteps = append(f.lSteps, int32(k))
		}
	}
	for k, pos := range f.colOrder {
		f.stepOf[pos] = k
	}
	f.uRows.transpose(m, m, func(k int) ([]int32, []float64) { return f.uPos[k], f.uVals[k] })
	f.lRows.transpose(m, m, func(k int) ([]int32, []float64) { return f.lIdx[k], f.lVals[k] })
	return true
}

// touch records that row r of work has been written: it joins the
// touched list once, and if an earlier step pivoted on it, that step
// joins the reach set.
func (f *luFactor) touch(r int32) {
	if !f.inWork[r] {
		f.inWork[r] = true
		f.touched = append(f.touched, r)
	}
	if p := f.posOfRow[r]; p >= 0 {
		f.reach[p>>6] |= 1 << (p & 63)
	}
}

func (f *luFactor) clearWork() {
	for _, r := range f.touched {
		f.work[r] = 0
		f.inWork[r] = false
	}
	f.touched = f.touched[:0]
}

// ftran solves B·x = v. v is indexed by original row and is left
// unchanged; the result is written to out, indexed by basis position.
func (f *luFactor) ftran(v, out []float64) {
	for k, r := range f.rowOfPos {
		f.solve[k] = v[r]
	}
	f.ftranSolve(out)
}

// ftranCol solves B·x = a for the column a whose nonzeros rows and vals
// list, by original row; the result is written to out, indexed by basis
// position.
//
// A column with one nonzero, in the row that step k pivoted on, solves
// in O(1) before the eta replay when step k's L and U columns are both
// empty: the L solve then applies nothing, the U solve divides the entry
// by the diagonal and scatters nothing, and every other entry stays 0.
// That is ftran's arithmetic on the one nonzero, so the result is
// ftran's bit for bit, but for the sign of a zero entry (ftran may leave
// −0 where 0 is divided by a negative diagonal); no reader of an FTRANed
// column tells the two apart. Any other column is scattered straight
// into elimination order and takes ftran's path.
func (f *luFactor) ftranCol(rows []int32, vals []float64, out []float64) {
	if len(rows) == 1 {
		if k := f.posOfRow[rows[0]]; len(f.lIdx[k]) == 0 && len(f.uPos[k]) == 0 {
			clear(out)
			out[f.colOrder[k]] = vals[0] / f.uDiag[k]
			f.replayEtas(out)
			return
		}
	}
	y := f.solve
	clear(y)
	for i, r := range rows {
		y[f.posOfRow[r]] = vals[i]
	}
	f.ftranSolve(out)
}

// ftranSolve finishes an FTRAN whose permuted input P·v is in f.solve,
// by elimination position, writing the result to out by basis position.
func (f *luFactor) ftranSolve(out []float64) {
	m := f.m
	// Forward: L y = P v, in elimination order, over the steps with an
	// L column (the others apply nothing).
	y := f.solve
	for _, k := range f.lSteps {
		t := y[k]
		if t == 0 {
			continue
		}
		lp, lv := f.lIdx[k], f.lVals[k]
		for i, p := range lp {
			y[p] -= lv[i] * t
		}
	}
	// Back-substitute U z = y, column-wise, skipping z_k = 0.
	for k := m - 1; k >= 0; k-- {
		s := y[k]
		if s == 0 && math.Signbit(s) {
			// See btran: replay the zero terms along row k.
			u := &f.uRows
			for i := u.start[k]; i < u.start[k+1]; i++ {
				s -= u.val[i] * y[u.idx[i]]
			}
		}
		zk := s / f.uDiag[k]
		y[k] = zk
		if zk == 0 {
			continue
		}
		up, uv := f.uPos[k], f.uVals[k]
		for i, p := range up {
			y[p] -= uv[i] * zk
		}
	}
	// colOrder is a permutation, so the scatter writes every entry.
	for k := 0; k < m; k++ {
		out[f.colOrder[k]] = y[k]
	}
	f.replayEtas(out)
}

// replayEtas applies the eta file to an FTRANed vector, oldest first.
func (f *luFactor) replayEtas(v []float64) {
	for e := range f.etas {
		f.applyEta(&f.etas[e], v)
	}
}

func (f *luFactor) applyEta(e *eta, v []float64) {
	t := v[e.pos] / e.pivot
	if v[e.pos] != 0 {
		for i, p := range e.rows {
			v[p] -= e.vals[i] * t
		}
	}
	v[e.pos] = t
}

// btran solves Bᵀ·y = c. c is indexed by basis position and is consumed
// as scratch; the result is written to out, indexed by original row.
func (f *luFactor) btran(c, out []float64) {
	m := f.m
	// Transposed eta replay, newest first: (Eᵀ)⁻¹ c leaves every entry but
	// c[pos] alone.
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := &f.etas[e]
		s := 0.0
		for i, p := range et.rows {
			s += et.vals[i] * c[p]
		}
		c[et.pos] = (c[et.pos] - s) / et.pivot
	}
	// Uᵀ g = c (in elimination order), forward: each solved g[k] is
	// scattered down row k of U, skipping g[k] = 0. g[j] still takes its
	// terms in ascending k, the order of a dot product with column j, and
	// a skipped ±0 term leaves every partial sum but −0 unchanged. A sum
	// still at −0 has had only +0 terms, and −0 − (−0) = +0, so it replays
	// its column's terms (all ±0) to get the dot product's sign of zero.
	g := f.solve
	for k := 0; k < m; k++ {
		g[k] = c[f.colOrder[k]]
	}
	for k := 0; k < m; k++ {
		s := g[k]
		if s == 0 && math.Signbit(s) {
			for i, p := range f.uPos[k] {
				s -= f.uVals[k][i] * g[p]
			}
		}
		gk := s / f.uDiag[k]
		g[k] = gk
		if gk == 0 {
			continue
		}
		u := &f.uRows
		for i := u.start[k]; i < u.start[k+1]; i++ {
			g[u.idx[i]] -= u.val[i] * gk
		}
	}
	// Lᵀ h = g, backward (L column k's entries lie at positions > k).
	for k := m - 1; k >= 0; k-- {
		lp, lv := f.lIdx[k], f.lVals[k]
		s := g[k]
		for i, p := range lp {
			s -= lv[i] * g[p]
		}
		g[k] = s
	}
	// rowOfPos is a permutation, so the scatter writes every entry.
	for k := 0; k < m; k++ {
		out[f.rowOfPos[k]] = g[k]
	}
}

// btranUnit solves Bᵀ·y = e_pos, the dual simplex's pivot row,
// hypersparsely. It writes y's nonzeros into out, indexed by original row
// and all zero on entry, appends their rows to nz and returns it.
//
// Each stage visits only the entries a nonzero reaches, in btran's order:
// the eta replay sums over the vector's nonzeros in ascending position,
// the Uᵀ solve scans the reach bitset upward as factor does, and the Lᵀ
// solve scans it downward, marking through lRows the steps whose dot
// product a nonzero enters. What it leaves out are terms that are
// products with an exact zero, and what it may change is the sign of a
// zero; neither can move a nonzero sum or product. Every nonzero is
// therefore btran's, bit for bit, and so is the nonzero pattern; only
// the sign of a zero entry may differ (out keeps +0 there), which
// neither pivotRow nor a dot product from +0 can see.
func (f *luFactor) btranUnit(pos int, out []float64, nz []int32) []int32 {
	c, cnz := f.unitPos, append(f.unitNZ[:0], int32(pos))
	c[pos] = 1
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := &f.etas[e]
		s := 0.0
		for _, p := range cnz {
			if v := et.dense[p]; v != 0 {
				s += v * c[p]
			}
		}
		cp := c[et.pos]
		if s == 0 && cp == 0 {
			continue
		}
		c[et.pos] = (cp - s) / et.pivot
		if i, ok := slices.BinarySearch(cnz, int32(et.pos)); !ok {
			cnz = slices.Insert(cnz, i, int32(et.pos))
		}
	}
	g := f.unitStep
	for _, p := range cnz {
		if v := c[p]; v != 0 {
			k := f.stepOf[p]
			g[k] = v
			f.reach[k>>6] |= 1 << (k & 63)
		}
		c[p] = 0
	}
	f.unitNZ = cnz
	// Uᵀ g = c forward, by the steps a nonzero reaches; a scatter only
	// marks later steps, so the upward scan re-reads the current word.
	steps := f.unitSteps[:0]
	u := &f.uRows
	for w := range f.reach {
		for f.reach[w] != 0 {
			b := bits.TrailingZeros64(f.reach[w])
			f.reach[w] &^= 1 << b
			k := w<<6 | b
			steps = append(steps, int32(k))
			gk := g[k]
			if gk == 0 {
				continue
			}
			gk /= f.uDiag[k]
			g[k] = gk
			if gk == 0 {
				continue
			}
			for i := u.start[k]; i < u.start[k+1]; i++ {
				p := u.idx[i]
				g[p] -= u.val[i] * gk
				f.reach[p>>6] |= 1 << (p & 63)
			}
		}
	}
	// Lᵀ h = g backward: step k is computed when g[k] is nonzero or its L
	// column holds a position whose h is; marks go to earlier steps only.
	for _, k := range steps {
		if g[k] != 0 {
			f.reach[k>>6] |= 1 << (k & 63)
		}
	}
	l := &f.lRows
	for w := len(f.reach) - 1; w >= 0; w-- {
		for f.reach[w] != 0 {
			b := 63 - bits.LeadingZeros64(f.reach[w])
			f.reach[w] &^= 1 << b
			k := w<<6 | b
			lp, lv := f.lIdx[k], f.lVals[k]
			s := g[k]
			for i, p := range lp {
				s -= lv[i] * g[p]
			}
			g[k] = s
			steps = append(steps, int32(k))
			if s == 0 {
				continue
			}
			r := f.rowOfPos[k]
			out[r] = s
			nz = append(nz, int32(r))
			for i := l.start[k]; i < l.start[k+1]; i++ {
				j := l.idx[i]
				f.reach[j>>6] |= 1 << (j & 63)
			}
		}
	}
	for _, k := range steps {
		g[k] = 0
	}
	f.unitSteps = steps
	return nz
}

// appendEta records the product-form update for a pivot at basis
// position pos whose FTRANed entering column is d (position-indexed,
// dense). It returns false when the pivot element is too small to update
// stably — the caller should refactorize instead.
func (f *luFactor) appendEta(pos int, d []float64) bool {
	const etaPivotTol = 1e-8
	if math.Abs(d[pos]) < etaPivotTol {
		return false
	}
	// Refactorization truncates the file but keeps its entries, so their
	// slices are reused here instead of reallocated every pivot.
	if n := len(f.etas); n < cap(f.etas) {
		f.etas = f.etas[:n+1]
	} else {
		f.etas = append(f.etas, eta{})
	}
	e := &f.etas[len(f.etas)-1]
	if e.dense == nil {
		e.dense = make([]float64, f.m)
	}
	for _, p := range e.rows {
		e.dense[p] = 0
	}
	e.pos, e.pivot = pos, d[pos]
	e.rows, e.vals = e.rows[:0], e.vals[:0]
	for i, v := range d {
		if v != 0 && i != pos {
			e.rows = append(e.rows, int32(i))
			e.vals = append(e.vals, v)
			e.dense[i] = v
		}
	}
	return true
}
