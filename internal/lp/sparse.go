package lp

import "math/bits"

// spCol is one column of a column-wise sparse matrix: parallel slices of
// row indices (ascending) and values.
type spCol struct {
	rows []int32
	vals []float64
}

func (c *spCol) add(row int, v float64) {
	if v == 0 {
		return
	}
	c.rows = append(c.rows, int32(row))
	c.vals = append(c.vals, v)
}

// csr is a row-wise copy of a column-wise sparse matrix: row i's column
// ids, ascending, and values are idx/val[start[i]:start[i+1]].
type csr struct {
	start []int
	idx   []int32
	val   []float64
}

// transpose rebuilds c from the n columns col(0..n-1) of a matrix with m
// rows, reusing c's storage.
func (c *csr) transpose(m, n int, col func(j int) ([]int32, []float64)) {
	if cap(c.start) < m+1 {
		c.start = make([]int, m+1)
	}
	start := c.start[:m+1]
	for i := range start {
		start[i] = 0
	}
	for j := 0; j < n; j++ {
		rows, _ := col(j)
		for _, i := range rows {
			start[i+1]++
		}
	}
	for i := 0; i < m; i++ {
		start[i+1] += start[i]
	}
	nnz := start[m]
	if cap(c.idx) < nnz {
		c.idx, c.val = make([]int32, nnz), make([]float64, nnz)
	}
	c.idx, c.val = c.idx[:nnz], c.val[:nnz]
	// start[i] serves as row i's fill cursor, which leaves it at
	// start[i+1]; shifting the array back restores it.
	for j := 0; j < n; j++ {
		rows, vals := col(j)
		for k, i := range rows {
			c.idx[start[i]], c.val[start[i]] = int32(j), vals[k]
			start[i]++
		}
	}
	copy(start[1:], start[:m])
	start[0] = 0
	c.start = start
}

// standard is the revised engine's standard form of a Problem: Ax ⋈ b
// rewritten as equalities with one row variable (slack or surplus) per
// inequality row, stored column-wise sparse, with every column bounded
// by 0 ≤ x_j ≤ u_j. The structure is built once per Solver; setRHS
// rewrites b for each solve.
//
// Column ids are fixed when the Solver is built:
//
//	0 .. nStruct-1          structural variables
//	nStruct+r               row variable of row r (slack +1 for LE,
//	                        surplus -1 for GE; inactive for EQ)
//	nStruct+m+r             artificial of row r (engine-internal; its
//	                        sign depends on the per-solve RHS)
//
// Unlike the dense tableau, rows are NOT sign-normalized by RHS sign:
// negating a row is a diagonal ±1 scaling that changes neither which
// column sets are valid bases nor the basic solution, and keeping the
// original orientation keeps the matrix, built once per Solver, valid
// when a new RHS crosses zero.
type standard struct {
	m, nStruct int
	nCols      int // nStruct + m; artificial ids start here
	cols       []spCol
	active     []bool // false for the unused row-variable slot of EQ rows
	rel        []Rel
	b          []float64 // perturbed RHS
	rows       csr       // the same nonzeros row by row, for the pivot row
	// colMark is pivotRow's bitset over columns, all zero between calls.
	colMark []uint64
}

// buildStandard converts p's structure; b stays zero until setRHS.
//
// The columns are cut from one arena sized by a counting pass over the
// rows' nonzeros, then filled row by row, so each column lists its rows
// in ascending order whatever the order of entries within a row.
func buildStandard(p *Problem) *standard {
	m := len(p.Constraints)
	nCols := p.NumVars + m
	s := &standard{
		m:       m,
		nStruct: p.NumVars,
		nCols:   nCols,
		cols:    make([]spCol, nCols),
		active:  make([]bool, nCols),
		rel:     make([]Rel, m),
		b:       make([]float64, m),
		colMark: make([]uint64, (nCols+63)/64),
	}
	for j := 0; j < p.NumVars; j++ {
		s.active[j] = true
	}
	// count[j] is column j's nonzero count: a structural column's
	// nonzero coefficients, and one for each inequality's row variable.
	count := make([]int32, nCols)
	nnz := 0
	for r, c := range p.Constraints {
		for k, j := range c.Vars {
			if c.Coeffs[k] != 0 {
				count[j]++
				nnz++
			}
		}
		if c.Rel != EQ {
			count[p.NumVars+r]++
			nnz++
		}
	}
	rows, vals := make([]int32, nnz), make([]float64, nnz)
	off := 0
	for j, n := range count {
		end := off + int(n)
		s.cols[j] = spCol{rows: rows[off:off:end], vals: vals[off:off:end]}
		off = end
	}
	for r, c := range p.Constraints {
		s.rel[r] = c.Rel
		switch c.Rel {
		case LE:
			s.cols[p.NumVars+r].add(r, 1)
			s.active[p.NumVars+r] = true
		case GE:
			s.cols[p.NumVars+r].add(r, -1)
			s.active[p.NumVars+r] = true
		}
		for k, j := range c.Vars {
			s.cols[j].add(r, c.Coeffs[k])
		}
	}
	s.rows.transpose(m, len(s.cols), func(j int) ([]int32, []float64) { return s.cols[j].rows, s.cols[j].vals })
	return s
}

// setRHS writes p's RHS into b with the same deterministic
// ε-perturbation as the dense tableau — row r is relaxed by perturb·(r+1)
// in the direction that grows the feasible region (LE up, GE down, EQ
// untouched) — so both engines share one numerical contract.
func (s *standard) setRHS(p *Problem) {
	for r, c := range p.Constraints {
		delta := perturb * float64(r+1)
		switch s.rel[r] {
		case LE:
			s.b[r] = c.RHS + delta
		case GE:
			s.b[r] = c.RHS - delta
		case EQ:
			s.b[r] = c.RHS
		}
	}
}

// pivotRow sets alpha = ρᵀA from ρ's nonzero rows, which rows lists in
// ascending order, and returns the columns it wrote, ascending, in
// cols[:0]. On entry alpha must be zero but at the columns cols lists
// (the previous call's result), which it clears first; every column it
// does not return is left zero. Each alpha[j] sums its terms in
// ascending row order, as a column-wise dot product does, and a skipped
// term is an exact zero added to a sum that starts at +0, so no bit of
// the result changes.
func (s *standard) pivotRow(rho []float64, rows []int32, alpha []float64, cols []int32) []int32 {
	for _, j := range cols {
		alpha[j] = 0
	}
	a, mark := &s.rows, s.colMark
	for _, r := range rows {
		y := rho[r]
		for k := a.start[r]; k < a.start[r+1]; k++ {
			j := a.idx[k]
			alpha[j] += y * a.val[k]
			mark[j>>6] |= 1 << (j & 63)
		}
	}
	return appendMarked(cols[:0], mark)
}

// appendMarked appends the indices of mark's set bits to dst, ascending,
// and clears mark.
func appendMarked(dst []int32, mark []uint64) []int32 {
	for w, word := range mark {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			dst = append(dst, int32(w<<6|b))
		}
		mark[w] = 0
	}
	return dst
}
