package lp_test

import (
	"context"
	"fmt"
	"math"

	"singlingout/internal/lp"
)

// ExampleRevised solves the classic two-variable production LP, with the
// x ≤ 4 capacity stated as an implicit upper bound instead of a row.
func ExampleRevised() {
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
	s, err := lp.Revised(context.Background(), p, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: x=%.0f y=%.0f value=%.0f\n", s.Status, s.X[0], s.X[1], -s.Objective)
	// Output: optimal: x=2 y=6 value=36
}
