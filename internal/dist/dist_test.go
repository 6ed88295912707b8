package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	b := 2.5
	sum, sumAbs := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := Laplace(rng, b)
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / n
	meanAbs := sumAbs / n
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// E|X| = b for Laplace(b).
	if math.Abs(meanAbs-b) > 0.05 {
		t.Errorf("Laplace E|X| = %v, want ~%v", meanAbs, b)
	}
}

func TestLaplacePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive scale")
		}
	}()
	Laplace(rand.New(rand.NewSource(1)), 0)
}

func TestTwoSidedGeometricSymmetryAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 200000
	eps := 0.5
	var sum, sumAbs float64
	zeros := 0
	for i := 0; i < n; i++ {
		x := TwoSidedGeometric(rng, eps)
		sum += float64(x)
		sumAbs += math.Abs(float64(x))
		if x == 0 {
			zeros++
		}
	}
	if m := sum / n; math.Abs(m) > 0.05 {
		t.Errorf("two-sided geometric mean = %v, want ~0", m)
	}
	// Pr[X=0] = (1-alpha)/(1+alpha) with alpha = e^-eps.
	alpha := math.Exp(-eps)
	wantZero := (1 - alpha) / (1 + alpha)
	gotZero := float64(zeros) / n
	if math.Abs(gotZero-wantZero) > 0.01 {
		t.Errorf("Pr[X=0] = %v, want ~%v", gotZero, wantZero)
	}
	_ = sumAbs
}

func TestTwoSidedGeometricDPRatio(t *testing.T) {
	// The noised count k + X should satisfy the eps-DP constraint between
	// neighbouring true counts k and k+1: probability masses at each output
	// differ by at most a factor e^eps.
	rng := rand.New(rand.NewSource(3))
	eps := 1.0
	const n = 400000
	hist0 := map[int64]int{}
	hist1 := map[int64]int{}
	for i := 0; i < n; i++ {
		hist0[10+TwoSidedGeometric(rng, eps)]++
		hist1[11+TwoSidedGeometric(rng, eps)]++
	}
	bound := math.Exp(eps) * 1.15 // slack for sampling error
	for v, c0 := range hist0 {
		c1 := hist1[v]
		if c0 < 500 || c1 < 500 {
			continue // skip noisy tails
		}
		r := float64(c0) / float64(c1)
		if r > bound || 1/r > bound {
			t.Errorf("output %d: ratio %v exceeds e^eps=%v", v, r, math.Exp(eps))
		}
	}
}

func TestZipfProbsSumToOne(t *testing.T) {
	z := NewZipf(50, 1.1)
	sum := 0.0
	for i := 0; i < 50; i++ {
		p := z.Prob(i)
		if p <= 0 {
			t.Fatalf("Prob(%d) = %v, want positive", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v, want 1", sum)
	}
	if z.Prob(0) <= z.Prob(49) {
		t.Errorf("Zipf should be decreasing: p0=%v p49=%v", z.Prob(0), z.Prob(49))
	}
}

func TestZipfSampleMatchesProb(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := NewZipf(10, 1.0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	for i := 0; i < 10; i++ {
		got := float64(counts[i]) / n
		want := z.Prob(i)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: freq %v, want ~%v", i, got, want)
		}
	}
}

func TestIsolationProbPeak(t *testing.T) {
	// The paper's worked example: n=365, w=1/365 gives ≈37%.
	p := IsolationProb(365, 1.0/365)
	if math.Abs(p-0.3689) > 0.001 {
		t.Errorf("IsolationProb(365, 1/365) = %v, want ≈0.369", p)
	}
}

func TestIsolationProbMatchesApprox(t *testing.T) {
	// For large n the exact form and n·w·e^{-n·w} agree.
	for _, n := range []int{100, 1000, 10000} {
		for _, w := range []float64{0.1 / float64(n), 1 / float64(n), 5 / float64(n)} {
			exact := IsolationProb(n, w)
			approx := IsolationProbApprox(n, w)
			if math.Abs(exact-approx) > 0.02 {
				t.Errorf("n=%d w=%v: exact %v approx %v", n, w, exact, approx)
			}
		}
	}
}

func TestIsolationProbProperties(t *testing.T) {
	// Property: IsolationProb is a probability, and equals the binomial
	// pmf Pr[Bin(n,w)=1].
	f := func(nRaw uint8, wRaw float64) bool {
		n := int(nRaw%200) + 1
		w := math.Mod(math.Abs(wRaw), 1)
		p := IsolationProb(n, w)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsolationProbEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, w := 100, 0.01
	const trials = 50000
	hits := 0
	for i := 0; i < trials; i++ {
		ones := 0
		for j := 0; j < n; j++ {
			if rng.Float64() < w {
				ones++
			}
		}
		if ones == 1 {
			hits++
		}
	}
	got := float64(hits) / trials
	want := IsolationProb(n, w)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical isolation %v, closed form %v", got, want)
	}
}

func TestLaplaceCDFAndTail(t *testing.T) {
	if got := LaplaceCDF(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LaplaceCDF(0,1) = %v, want 0.5", got)
	}
	// Each tail is e^(-t/b)/2, and the two are symmetric.
	for _, tt := range []float64{0.5, 1, 2, 5} {
		want := 0.5 * math.Exp(-tt/2)
		lower, upper := LaplaceCDF(-tt, 2), 1-LaplaceCDF(tt, 2)
		if math.Abs(lower-want) > 1e-12 || math.Abs(upper-want) > 1e-12 {
			t.Errorf("Laplace(2) tails at %v: lower %v, upper %v, want %v", tt, lower, upper, want)
		}
	}
}

func TestLaplaceEmpiricalCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100000
	b := 1.0
	count := 0
	for i := 0; i < n; i++ {
		if Laplace(rng, b) <= 1.0 {
			count++
		}
	}
	got := float64(count) / n
	want := LaplaceCDF(1.0, b)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical CDF(1) = %v, want %v", got, want)
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if m := Mean(xs); m != 3 {
		t.Errorf("Mean = %v, want 3", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}
