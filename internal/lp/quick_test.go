package lp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRandomBoundedLPsQuick property-tests Solve on random bounded-
// feasible LPs: the status must be Optimal and the point feasible within
// the documented slack.
func TestRandomBoundedLPsQuick(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%5) + 1
		m := int(mRaw%6) + 1
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64() // nonnegative
			}
			p.Constraints = append(p.Constraints, dense(row, LE, rng.Float64()*4))
		}
		// Box to guarantee boundedness.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.Constraints = append(p.Constraints, dense(row, LE, 5))
		}
		s, err := Solve(ctx, p)
		if err != nil || s.Status != Optimal {
			return false
		}
		const slack = 2e-5
		for _, x := range s.X {
			if x < -slack {
				return false
			}
		}
		for _, c := range p.Constraints {
			if lhs(c, s.X) > c.RHS+slack {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
