package dp_test

import (
	"fmt"
	"math"
	"math/rand"

	"singlingout/internal/dp"
)

// ExampleLaplaceCount releases a count under ε-differential privacy. The
// noise has mean absolute value 1/ε, so a smaller ε hides the count better.
func ExampleLaplaceCount() {
	rng := rand.New(rand.NewSource(1))
	trueCount := int64(1234)
	for _, eps := range []float64{1, 0.1} {
		var sumAbs float64
		const releases = 10000
		for i := 0; i < releases; i++ {
			sumAbs += math.Abs(dp.LaplaceCount(rng, trueCount, eps) - float64(trueCount))
		}
		fmt.Printf("ε=%g: mean |error| ≈ %.0f\n", eps, sumAbs/releases)
	}
	// Output:
	// ε=1: mean |error| ≈ 1
	// ε=0.1: mean |error| ≈ 10
}
