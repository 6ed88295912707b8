// Package dist provides the probability distributions and probability
// utilities used throughout the library: Laplace and two-sided geometric
// noise for differential privacy, a Zipf sampler for workload generation,
// and closed forms for the isolation probabilities analyzed in Section 2.2
// of the paper.
//
// All samplers take an explicit *rand.Rand so that every experiment in the
// repository is reproducible bit-for-bit from its seed.
package dist

import (
	"math"
	"math/rand"
)

// Laplace samples from the Laplace distribution with mean 0 and scale b.
// The density is f(x) = exp(-|x|/b) / (2b). It panics if b <= 0.
func Laplace(rng *rand.Rand, b float64) float64 {
	if b <= 0 {
		panic("dist: Laplace scale must be positive")
	}
	// Inverse CDF: u uniform in (-1/2, 1/2), x = -b * sgn(u) * ln(1-2|u|).
	u := rng.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// TwoSidedGeometric samples the discrete analogue of the Laplace
// distribution: Pr[X=k] ∝ alpha^|k| with alpha = exp(-eps) for integer k.
// It is the standard integer-valued noise for eps-differentially private
// counting. It panics if eps <= 0.
func TwoSidedGeometric(rng *rand.Rand, eps float64) int64 {
	if eps <= 0 {
		panic("dist: TwoSidedGeometric eps must be positive")
	}
	alpha := math.Exp(-eps)
	// Sample magnitude from a geometric, sign uniformly, and handle the
	// double-counting of zero by rejection.
	for {
		mag := geometric(rng, 1-alpha) // Pr[mag=k] = (1-alpha) alpha^k, k >= 0
		if mag == 0 {
			// Zero is produced by both signs; accept with probability 1/2
			// so that Pr[X=0] has the correct relative mass.
			if rng.Float64() < 0.5 {
				return 0
			}
			continue
		}
		if rng.Float64() < 0.5 {
			return -mag
		}
		return mag
	}
}

// geometric samples k >= 0 with Pr[k] = p (1-p)^k.
func geometric(rng *rand.Rand, p float64) int64 {
	if p >= 1 {
		return 0
	}
	u := rng.Float64()
	// Inverse CDF of the geometric distribution.
	return int64(math.Floor(math.Log(1-u) / math.Log(1-p)))
}

// Zipf holds a precomputed Zipf(s) distribution over ranks 1..N, used to
// model long-tailed item popularity (e.g. movie ratings in the synthetic
// Netflix-style workload).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution with exponent s > 0 over n ranks.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("dist: NewZipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample returns a rank in [0, n) with Zipf-distributed probability
// (rank 0 is the most popular).
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IsolationProb is the closed form from Section 2.2 of the paper: the
// probability that a predicate of weight w, chosen independently of the
// data, evaluates to 1 on exactly one of n i.i.d. records:
//
//	n·w·(1-w)^(n-1)
//
// Its maximum over w is attained near w = 1/n where it is approximately
// 1/e ≈ 37%.
func IsolationProb(n int, w float64) float64 {
	if n <= 0 || w < 0 || w > 1 {
		return 0
	}
	return float64(n) * w * math.Pow(1-w, float64(n-1))
}

// IsolationProbApprox is the paper's approximation n·w·e^{-n·w}.
func IsolationProbApprox(n int, w float64) float64 {
	nw := float64(n) * w
	return nw * math.Exp(-nw)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
