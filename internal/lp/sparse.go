package lp

import (
	"math"
)

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
// by 0 ≤ x_j ≤ ub[j].
//
// Column ids are stable across solves over the same constraint matrix —
// the property the warm-start contract relies on:
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
// original orientation keeps the matrix — and therefore a warm-start
// Basis — valid when a new RHS crosses zero.
type standard struct {
	m, nStruct int
	nCols      int // nStruct + m; artificial ids start here
	cols       []spCol
	active     []bool    // false for the unused row-variable slot of EQ rows
	ub         []float64 // per-column upper bound (+Inf when unbounded)
	rel        []Rel
	b          []float64 // perturbed RHS
	sig        uint64    // FNV-1a over the constraint structure (not RHS or bounds)
	rows       csr       // the same nonzeros row by row, for the pivot row
}

// buildStandard converts p. The same deterministic ε-perturbation as the
// dense tableau is applied to the RHS — row r is relaxed by perturb·(r+1)
// in the direction that grows the feasible region (LE up, GE down, EQ
// untouched) — so both engines share one numerical contract.
func buildStandard(p *Problem) *standard {
	m := len(p.Constraints)
	s := &standard{
		m:       m,
		nStruct: p.NumVars,
		nCols:   p.NumVars + m,
		cols:    make([]spCol, p.NumVars+m),
		active:  make([]bool, p.NumVars+m),
		ub:      make([]float64, p.NumVars+m),
		rel:     make([]Rel, m),
		b:       make([]float64, m),
	}
	for j := range s.ub {
		s.ub[j] = math.Inf(1)
	}
	copy(s.ub, p.Upper)
	for j := 0; j < p.NumVars; j++ {
		s.active[j] = true
	}
	for r, c := range p.Constraints {
		s.rel[r] = c.Rel
		delta := perturb * float64(r+1)
		switch c.Rel {
		case LE:
			s.b[r] = c.RHS + delta
			s.cols[p.NumVars+r].add(r, 1)
			s.active[p.NumVars+r] = true
		case GE:
			s.b[r] = c.RHS - delta
			s.cols[p.NumVars+r].add(r, -1)
			s.active[p.NumVars+r] = true
		case EQ:
			s.b[r] = c.RHS
		}
	}
	// Structural columns, gathered row-major from the dense input rows.
	for r, c := range p.Constraints {
		for j, v := range c.Coeffs {
			s.cols[j].add(r, v)
		}
	}
	s.rows.transpose(m, len(s.cols), func(j int) ([]int32, []float64) { return s.cols[j].rows, s.cols[j].vals })
	s.sig = s.signature()
	return s
}

// pivotRow sets alpha[j] = ρ·A_j for every column j, row-wise over the
// rows where ρ is nonzero, so a sparse ρ costs only the nonzeros of its
// rows. Each alpha[j] still sums its terms in ascending row order, as a
// column-wise dot product does, and a skipped term is an exact zero
// added to a sum that starts at +0, so no bit of the result changes.
func (s *standard) pivotRow(rho, alpha []float64) {
	for j := range alpha {
		alpha[j] = 0
	}
	rows := &s.rows
	for r, y := range rho {
		if y == 0 {
			continue
		}
		for k := rows.start[r]; k < rows.start[r+1]; k++ {
			alpha[rows.idx[k]] += y * rows.val[k]
		}
	}
}

// signature hashes the constraint structure — dimensions, relations and
// coefficients, but not the RHS, objective or bounds — so a warm-start
// Basis can be checked against the matrix it was produced on.
func (s *standard) signature() uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(s.m))
	mix(uint64(s.nStruct))
	for r, rel := range s.rel {
		mix(uint64(r)<<2 | uint64(rel))
	}
	for j := 0; j < s.nStruct; j++ {
		col := &s.cols[j]
		for k, row := range col.rows {
			mix(uint64(j))
			mix(uint64(row))
			mix(math.Float64bits(col.vals[k]))
		}
	}
	return h
}
