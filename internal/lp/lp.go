// Package lp is a self-contained linear-programming solver. It replaces
// the commercial LP solvers (CPLEX/Gurobi) used by the linear-program
// reconstruction attacks the paper surveys ([13], [18], [24]) at the
// scale of this repository's experiments.
//
// Problems are stated as: minimize c·x subject to linear constraints with
// relations ≤, =, ≥ and bounds 0 ≤ x_j ≤ u_j (Problem.Upper; u_j = +Inf
// allowed, and no bounds beyond x ≥ 0 when Upper is nil). Each
// constraint lists only its nonzeros, as variable indices and
// coefficients. Free variables are encoded by the caller as differences
// of two nonnegative ones. A non-finite objective entry, coefficient or
// RHS, and a malformed row, are refused before any solve.
//
// Solver is the one engine: a sparse bounded-variable revised simplex —
// column-wise sparse storage, an LU-factorized basis with product-form
// (eta-file) updates between periodic refactorizations and candidate-list
// partial pricing. Upper bounds are implicit: a nonbasic variable sits at
// 0 or at u_j, so a box never costs a basis row. NewSolver builds the
// engine for one constraint matrix once — the standard form, the
// per-column arrays and the LU storage — and each Solve reads only the
// problem's RHS, bounds and objective, so a caller that solves one
// matrix many times (recon.Decoder) pays for the structure once. Every
// Solve starts cold, from the crash below, so a reused Solver returns
// what a fresh engine would, bit for bit.
//
// Each iteration touches only entries that can be nonzero, without
// changing a nonzero bit against the dense-order loops the tests keep
// as references. The standard form's columns are filled from the sparse
// rows in O(nnz). The LU factorization eliminates each column only by
// the earlier steps whose pivot rows it reaches, and stores L by
// elimination position, so FTRAN and BTRAN skip the row permutation
// inside their L solves. The dual simplex solves its pivot row
// ρ = B⁻ᵀe_r hypersparsely: the eta replay and the Uᵀ and Lᵀ solves
// visit only the entries a nonzero of ρ reaches. It forms ρᵀA from
// the rows where ρ is nonzero, and its ratio test and reduced-cost
// update visit only the columns that pass wrote. FTRAN of an entering
// unit column whose row was pivoted by a step with empty L and U
// columns is one division before the eta replay; any other column's L
// solve visits only the steps with an L column.
//
// A cold start crashes each row onto a singleton column whose value lies
// within its bounds — the row's slack or surplus, or a structural column
// that appears in that row only (the e⁺/e⁻ error columns of an L1 fit).
// When every row is covered, the solve needs no artificial variables and
// no phase 1. Each row's pick is then re-made at the centre of the box:
// of the singletons that cost what the crash's pick costs, the row takes
// one whose value lies within its bounds with every boxed non-singleton
// column at its midpoint, so an L1 fit starts each row on the error
// column of the side its RHS falls, which halves the decoder's pivots.
// Each boxed nonbasic column is placed at the bound its reduced cost
// prefers, and the dual simplex — with a long-step (bound-flipping)
// ratio test — restores primal feasibility. A centred basis with no
// dual-feasible placement goes back to the crash's, which is primal
// feasible. Rows no singleton covers get artificials and a phase-1
// search from the crash, so general LPs keep the two-phase path.
//
// Primal degeneracy is broken by a deterministic ε-perturbation of the
// RHS: row r moves by perturb·(r+1) in the direction that grows the
// feasible region (LE rows up, GE rows down). Equality rows stay exact.
// That includes the elastic rows of the L1 decoding LP (unbounded
// singletons of both signs, so any RHS stays feasible), where a
// perturbation would be safe: those solves run the dual simplex, which
// the RHS perturbation does not help — on n = 64 decodes of exact
// answers it raised the pivots from ~120 to 320–590. Bland's rule is the
// termination backstop on both the primal and the dual side.
package lp

import (
	"errors"
	"fmt"
	"math"

	"singlingout/internal/obs"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ a_j x_j ≤ b
	GE            // Σ a_j x_j ≥ b
	EQ            // Σ a_j x_j = b
)

// Constraint is one row of the constraint system, listed by its
// nonzeros: Coeffs[k] multiplies variable Vars[k]. The two slices have
// equal length, every index lies in [0, NumVars) and appears at most
// once, and the order of the entries does not matter. A zero
// coefficient is allowed and ignored.
type Constraint struct {
	Vars   []int
	Coeffs []float64
	Rel    Rel
	RHS    float64
}

// Problem is a minimization LP over 0 ≤ x ≤ Upper.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; minimized
	Constraints []Constraint
	// Upper holds the variables' upper bounds: nil for none, otherwise
	// length NumVars with every entry ≥ 0 (+Inf for unbounded). Bounds
	// are not part of the constraint structure, so a Solver reads them
	// afresh at each solve.
	Upper []float64
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a successful solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Pivots is the total number of simplex iterations performed (both
	// phases; a primal bound flip counts as one); Phase1Pivots is the
	// feasibility-search share.
	Pivots       int
	Phase1Pivots int
}

// Metrics recorded into obs.Default(). lp.pivots counts every simplex
// iteration across both phases — the paper's "solver iterations" cost of
// an LP reconstruction attack. lp.refactorizations counts basis LU
// (re)factorizations, and lp.dual_pivots the dual-simplex share of
// pivots.
var (
	mSolves     = obs.Default().Counter("lp.solves")
	mPivots     = obs.Default().Counter("lp.pivots")
	mPhase1     = obs.Default().Counter("lp.phase1_pivots")
	mInfeasible = obs.Default().Counter("lp.infeasible")
	mUnbounded  = obs.Default().Counter("lp.unbounded")
	mSolveNS    = obs.Default().Histogram("lp.solve_ns")
	mRefactor   = obs.Default().Counter("lp.refactorizations")
	mDualPivots = obs.Default().Counter("lp.dual_pivots")
)

// ErrIterationLimit is returned when the simplex fails to terminate within
// its iteration budget (indicative of severe degeneracy or a bug).
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const (
	tol = 1e-9
	// blandAfter switches to Bland's rule after this many Dantzig pivots
	// to guarantee termination on degenerate problems. The ε-perturbation
	// makes cycling essentially impossible, so this is a deep backstop;
	// switching early would trade Dantzig's fast convergence for Bland's
	// glacial one.
	blandAfter = 200000
	// perturb is the per-row scale of the deterministic ε-perturbation
	// applied to the RHS to break the massive degeneracy of L1-fitting
	// LPs. Row r is relaxed by perturb·(r+1), so with up to ~1000 rows the
	// returned point may violate original constraints by at most ~1e-5
	// (the feasibility slack of Solver.Solve).
	perturb = 1e-8
	// ctxEvery is the pivot cadence at which a solve checks its context.
	ctxEvery = 4096
)

// validateStructure refuses a nonpositive NumVars, a malformed sparse
// row, an unknown relation or a non-finite coefficient.
func validateStructure(p *Problem) error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: NumVars = %d, want positive", p.NumVars)
	}
	// seen[j] == i+1 marks variable j as listed by constraint i.
	seen := make([]int, p.NumVars)
	for i, c := range p.Constraints {
		if len(c.Vars) != len(c.Coeffs) {
			return fmt.Errorf("lp: constraint %d lists %d indices for %d coefficients", i, len(c.Vars), len(c.Coeffs))
		}
		if c.Rel != LE && c.Rel != GE && c.Rel != EQ {
			return fmt.Errorf("lp: constraint %d relation %d, want LE, GE or EQ", i, c.Rel)
		}
		for k, j := range c.Vars {
			if j < 0 || j >= p.NumVars {
				return fmt.Errorf("lp: constraint %d index %d outside [0, %d)", i, j, p.NumVars)
			}
			if seen[j] == i+1 {
				return fmt.Errorf("lp: constraint %d lists variable %d twice", i, j)
			}
			seen[j] = i + 1
			if !finite(c.Coeffs[k]) {
				return fmt.Errorf("lp: constraint %d coefficient of variable %d = %v, want finite", i, j, c.Coeffs[k])
			}
		}
	}
	return nil
}

// validateData refuses what a solve reads afresh each time: an objective
// of the wrong length or with a non-finite entry, a non-finite RHS, and
// upper bounds of the wrong length or with a negative or NaN entry.
func validateData(p *Problem) error {
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective length %d != NumVars %d", len(p.Objective), p.NumVars)
	}
	for j, c := range p.Objective {
		if !finite(c) {
			return fmt.Errorf("lp: objective entry %d = %v, want finite", j, c)
		}
	}
	for i, c := range p.Constraints {
		if !finite(c.RHS) {
			return fmt.Errorf("lp: constraint %d RHS = %v, want finite", i, c.RHS)
		}
	}
	if p.Upper != nil {
		if len(p.Upper) != p.NumVars {
			return fmt.Errorf("lp: upper-bound length %d != NumVars %d", len(p.Upper), p.NumVars)
		}
		for j, u := range p.Upper {
			if math.IsNaN(u) || u < 0 {
				return fmt.Errorf("lp: upper bound %d = %v, want >= 0", j, u)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

var errUnbounded = errors.New("lp: unbounded")
