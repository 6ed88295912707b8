package lp

import (
	"math"
	"testing"

	"singlingout/internal/par"
)

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
			if int(p) == et.pos {
				continue
			}
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

// ftranRef is ftran with its U back-substitution scattering every z_k,
// zeros included.
func ftranRef(f *luFactor, v, out []float64) {
	m := f.m
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
	for i := range out {
		out[i] = 0
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

// check runs BTRAN on every unit vector and on the basic costs, the
// pivot row on each result, and FTRAN on each result (these carry −0
// entries), on every column and on b.
func (kc *kernelChecker) check(e *revised) {
	kc.t.Helper()
	kc.states++
	if len(e.lu.etas) > 0 {
		kc.etaful++
	}
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

// solve runs p through the engine, cold or warm, checking the kernels at
// every pivot and at the end.
func (kc *kernelChecker) solve(p *Problem, warm *Basis) *Solution {
	kc.t.Helper()
	e := newRevised(ctx, p, buildStandard(p))
	e.progressEvery = 1
	e.progress = func(Progress) { kc.check(e) }
	sol, err := e.run(warm)
	if err != nil {
		kc.t.Fatal(err)
	}
	kc.check(e)
	if sol.Status == Optimal {
		sol.Basis = e.saveBasis()
	}
	return sol
}

// TestSparseKernelsMatchReference: the row-wise pivot row and the
// zero-skipping BTRAN and FTRAN reproduce the dense-order loops bit for
// bit, on every basis the engine passes through for the property test's
// LPs, the FuzzRevised seeds (cold and warm) and an L1 decoding LP
// warm-started across noisy answer vectors.
func TestSparseKernelsMatchReference(t *testing.T) {
	kc := &kernelChecker{t: t}
	for trial := 0; trial < 120; trial++ {
		kc.solve(boxedProblem(par.RNG(11, trial), trial%2 == 0), nil)
	}
	for trial := 120; trial < 360; trial++ {
		kc.solve(boundedProblem(par.RNG(11, trial), trial%2 == 0), nil)
	}
	for _, seed := range fuzzRevisedSeeds {
		p, shift := fuzzProblem(seed)
		cold := kc.solve(p, nil)
		if cold.Status != Optimal {
			continue
		}
		for i := range p.Constraints {
			p.Constraints[i].RHS += shift
		}
		kc.solve(p, cold.Basis)
	}
	rng := par.RNG(5, 0)
	m := 48
	qRows, answers := subsetRows(rng, 12, m)
	open := make([]bool, m)
	var basis *Basis
	for round := 0; round < 5; round++ {
		noisy := make([]float64, m)
		for k := range noisy {
			noisy[k] = answers[k] + rng.NormFloat64()*float64(round)
		}
		basis = kc.solve(l1EqualityProblem(qRows, noisy, open), basis).Basis
	}
	if kc.etaful == 0 {
		t.Fatalf("none of %d states had an eta file", kc.states)
	}
	t.Logf("%d states checked, %d with a non-empty eta file", kc.states, kc.etaful)
}
