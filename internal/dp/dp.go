// Package dp is a self-contained differential privacy library implementing
// Definition 1.2 and Theorem 1.3 of the paper: the Laplace mechanism for
// counting, its integer-valued geometric analogue, and an empirical check
// of a mechanism's privacy loss.
//
// Every mechanism takes an explicit *rand.Rand for reproducibility and an
// epsilon > 0; mechanisms panic on non-positive epsilon (a programmer
// error, not a data condition).
package dp

import (
	"fmt"
	"math"
	"math/rand"

	"singlingout/internal/dist"
)

// validEps panics unless eps is a usable privacy-loss parameter.
func validEps(eps float64) {
	if !(eps > 0) || math.IsInf(eps, 1) {
		panic(fmt.Sprintf("dp: epsilon must be positive and finite, got %v", eps))
	}
}

// LaplaceCount releases a count with Laplace(1/eps) noise — the mechanism
// of Theorem 1.3. Counts have sensitivity 1, so the release is eps-DP.
func LaplaceCount(rng *rand.Rand, trueCount int64, eps float64) float64 {
	validEps(eps)
	return float64(trueCount) + dist.Laplace(rng, 1/eps)
}

// GeometricCount releases an integer count with two-sided geometric noise;
// the discrete analogue of the Laplace mechanism, also eps-DP for
// sensitivity-1 counts.
func GeometricCount(rng *rand.Rand, trueCount int64, eps float64) int64 {
	validEps(eps)
	return trueCount + dist.TwoSidedGeometric(rng, eps)
}

// EmpiricalEpsilon estimates the realized privacy loss of a real-valued
// mechanism between two neighbouring inputs by histogramming trials of
// each and taking the max log-ratio over well-populated bins. It is a
// diagnostic (a lower bound on the true epsilon), used by the E3 harness
// to check the Laplace mechanism against its advertised guarantee.
func EmpiricalEpsilon(rng *rand.Rand, mech func(*rand.Rand) float64, mechNeighbor func(*rand.Rand) float64, trials int, binWidth float64) float64 {
	if trials <= 0 || binWidth <= 0 {
		panic("dp: EmpiricalEpsilon needs positive trials and bin width")
	}
	h0 := map[int64]int{}
	h1 := map[int64]int{}
	for i := 0; i < trials; i++ {
		h0[int64(math.Floor(mech(rng)/binWidth))]++
		h1[int64(math.Floor(mechNeighbor(rng)/binWidth))]++
	}
	// Ignore sparsely populated bins: the log-ratio noise of a bin pair
	// is ~sqrt(2/minCount), so scaling the floor with the trial budget
	// keeps the estimator's noise floor well below typical epsilons.
	minCount := trials / 200
	if minCount < 100 {
		minCount = 100
	}
	worst := 0.0
	for bin, c0 := range h0 {
		c1 := h1[bin]
		if c0 < minCount || c1 < minCount {
			continue
		}
		r := math.Abs(math.Log(float64(c0) / float64(c1)))
		if r > worst {
			worst = r
		}
	}
	return worst
}
