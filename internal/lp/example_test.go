package lp_test

import (
	"context"
	"fmt"
	"math"

	"singlingout/internal/lp"
)

// ExampleSolver solves the classic two-variable production LP, with the
// x ≤ 4 capacity stated as an implicit upper bound instead of a row, then
// raises the second capacity to 20 and solves again on the same Solver,
// which reads the new RHS and rebuilds nothing.
func ExampleSolver() {
	// maximize 3x + 5y  ⇔  minimize -3x - 5y
	p := &lp.Problem{
		NumVars:   2,
		Objective: []float64{-3, -5},
		Constraints: []lp.Constraint{
			{Vars: []int{1}, Coeffs: []float64{2}, Rel: lp.LE, RHS: 12},
			{Vars: []int{0, 1}, Coeffs: []float64{3, 2}, Rel: lp.LE, RHS: 18},
		},
		Upper: []float64{4, math.Inf(1)},
	}
	s, err := lp.NewSolver(p)
	if err != nil {
		panic(err)
	}
	for range 2 {
		sol, err := s.Solve(context.Background())
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: x=%.2f y=%.0f value=%.0f\n", sol.Status, sol.X[0], sol.X[1], -sol.Objective)
		p.Constraints[1].RHS = 20
	}
	// Output:
	// optimal: x=2.00 y=6 value=36
	// optimal: x=2.67 y=6 value=38
}
