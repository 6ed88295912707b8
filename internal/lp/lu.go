package lp

import (
	"math"
	"sort"
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
	// L columns (unit diagonal implicit): entries (original row, value)
	// for rows not yet pivoted at their step.
	lRows [][]int32
	lVals [][]float64
	// U columns: entries (elimination position j < k, value) and the
	// diagonal.
	uPos  [][]int32
	uVals [][]float64
	uDiag []float64
	// etas is the product-form update file: eta e replaces basis position
	// e.pos; e.rows/e.vals are the position-indexed nonzeros of the
	// FTRANed entering column, e.pivot its value at e.pos.
	etas []eta

	work    []float64 // dense scratch, len m; all zero between calls
	touched []int32
	inWork  []bool
	solve   []float64 // ftran/btran scratch in elimination order, len m
}

type eta struct {
	pos   int
	pivot float64
	rows  []int32
	vals  []float64
}

// luMinPivot is the singularity threshold for factorization pivots.
const luMinPivot = 1e-10

func newLU(m int) *luFactor {
	return &luFactor{
		m:        m,
		rowOfPos: make([]int, m),
		posOfRow: make([]int, m),
		colOrder: make([]int, m),
		lRows:    make([][]int32, m),
		lVals:    make([][]float64, m),
		uPos:     make([][]int32, m),
		uVals:    make([][]float64, m),
		uDiag:    make([]float64, m),
		work:     make([]float64, m),
		touched:  make([]int32, 0, m),
		inWork:   make([]bool, m),
		solve:    make([]float64, m),
	}
}

// factor (re)builds the LU decomposition of the basis described by
// column, a position→sparse-column accessor. It returns false when the
// basis matrix is numerically singular. The eta file is cleared.
func (f *luFactor) factor(column func(pos int) ([]int32, []float64)) bool {
	m := f.m
	f.etas = f.etas[:0]
	for i := 0; i < m; i++ {
		f.posOfRow[i] = -1
	}
	// Sparsest columns first: their pivots eliminate rows without creating
	// fill for the denser columns factored later.
	type colRef struct{ pos, nnz int }
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
		// Scatter the column into the dense workspace.
		f.touched = f.touched[:0]
		for i, r := range rows {
			f.work[r] = vals[i]
			if !f.inWork[r] {
				f.inWork[r] = true
				f.touched = append(f.touched, r)
			}
		}
		// Left-looking elimination by the columns already factored.
		uPos := f.uPos[k][:0]
		uVals := f.uVals[k][:0]
		for j := 0; j < k; j++ {
			pr := f.rowOfPos[j]
			t := f.work[pr]
			if t == 0 {
				continue
			}
			uPos = append(uPos, int32(j))
			uVals = append(uVals, t)
			lr, lv := f.lRows[j], f.lVals[j]
			for i, r := range lr {
				f.work[r] -= lv[i] * t
				if !f.inWork[r] {
					f.inWork[r] = true
					f.touched = append(f.touched, r)
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
		lr := f.lRows[k][:0]
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
		f.lRows[k], f.lVals[k] = lr, lv
		f.rowOfPos[k] = pivRow
		f.posOfRow[pivRow] = k
		f.clearWork()
	}
	return true
}

func (f *luFactor) clearWork() {
	for _, r := range f.touched {
		f.work[r] = 0
		f.inWork[r] = false
	}
	f.touched = f.touched[:0]
}

// ftran solves B·x = v. v is indexed by original row and is consumed as
// scratch; the result is written to out, indexed by basis position.
func (f *luFactor) ftran(v, out []float64) {
	m := f.m
	// Forward: L y = P v.
	for k := 0; k < m; k++ {
		t := v[f.rowOfPos[k]]
		if t == 0 {
			continue
		}
		lr, lv := f.lRows[k], f.lVals[k]
		for i, r := range lr {
			v[r] -= lv[i] * t
		}
	}
	// Back-substitute U z = y, column-wise.
	z := out // reuse out as the z buffer in elimination order via scatter below
	tmp := f.solve
	for k := 0; k < m; k++ {
		tmp[k] = v[f.rowOfPos[k]]
	}
	for k := m - 1; k >= 0; k-- {
		zk := tmp[k] / f.uDiag[k]
		tmp[k] = zk
		up, uv := f.uPos[k], f.uVals[k]
		for i, p := range up {
			tmp[p] -= uv[i] * zk
		}
	}
	for i := range z {
		z[i] = 0
	}
	for k := 0; k < m; k++ {
		z[f.colOrder[k]] = tmp[k]
	}
	// Replay the eta file.
	for e := range f.etas {
		f.applyEta(&f.etas[e], z)
	}
}

func (f *luFactor) applyEta(e *eta, v []float64) {
	t := v[e.pos] / e.pivot
	if v[e.pos] != 0 {
		for i, p := range e.rows {
			if int(p) == e.pos {
				continue
			}
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
			if int(p) == et.pos {
				continue
			}
			s += et.vals[i] * c[p]
		}
		c[et.pos] = (c[et.pos] - s) / et.pivot
	}
	// Uᵀ g = c (in elimination order), forward.
	g := f.solve
	for k := 0; k < m; k++ {
		s := c[f.colOrder[k]]
		up, uv := f.uPos[k], f.uVals[k]
		for i, p := range up {
			s -= uv[i] * g[p]
		}
		g[k] = s / f.uDiag[k]
	}
	// Lᵀ h = g, backward (rows in lRows have elimination positions > k).
	for k := m - 1; k >= 0; k-- {
		lr, lv := f.lRows[k], f.lVals[k]
		s := g[k]
		for i, r := range lr {
			s -= lv[i] * g[f.posOfRow[r]]
		}
		g[k] = s
	}
	for i := range out {
		out[i] = 0
	}
	for k := 0; k < m; k++ {
		out[f.rowOfPos[k]] = g[k]
	}
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
	e.pos, e.pivot = pos, d[pos]
	e.rows, e.vals = e.rows[:0], e.vals[:0]
	for i, v := range d {
		if v != 0 {
			e.rows = append(e.rows, int32(i))
			e.vals = append(e.vals, v)
		}
	}
	return true
}
