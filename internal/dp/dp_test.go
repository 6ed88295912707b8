package dp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLaplaceCountAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eps := 1.0
	const trials = 50000
	var sumErr, sumAbsErr float64
	for i := 0; i < trials; i++ {
		out := LaplaceCount(rng, 100, eps)
		sumErr += out - 100
		sumAbsErr += math.Abs(out - 100)
	}
	if m := sumErr / trials; math.Abs(m) > 0.05 {
		t.Errorf("bias = %v, want ~0", m)
	}
	if m := sumAbsErr / trials; math.Abs(m-1/eps) > 0.05 {
		t.Errorf("mean abs error = %v, want ~%v", m, 1/eps)
	}
}

func TestLaplaceCountEpsilonBound(t *testing.T) {
	// Empirical privacy loss of the Laplace mechanism must not exceed eps.
	rng := rand.New(rand.NewSource(2))
	eps := 0.8
	got := EmpiricalEpsilon(rng,
		func(r *rand.Rand) float64 { return LaplaceCount(r, 50, eps) },
		func(r *rand.Rand) float64 { return LaplaceCount(r, 51, eps) },
		200000, 0.5)
	if got > eps*1.2 {
		t.Errorf("empirical epsilon %v exceeds advertised %v", got, eps)
	}
	if got < eps*0.3 {
		t.Errorf("empirical epsilon %v implausibly small (harness broken?)", got)
	}
}

func TestPanicsOnBadEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []func(){
		func() { LaplaceCount(rng, 1, 0) },
		func() { LaplaceCount(rng, 1, math.Inf(1)) },
		func() { GeometricCount(rng, 1, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGeometricCountIsInteger(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sum float64
	const trials = 50000
	for i := 0; i < trials; i++ {
		sum += float64(GeometricCount(rng, 20, 1.0))
	}
	if m := sum / trials; math.Abs(m-20) > 0.1 {
		t.Errorf("mean = %v, want ~20", m)
	}
}

func TestEmpiricalEpsilonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EmpiricalEpsilon(rand.New(rand.NewSource(1)), nil, nil, 0, 1)
}
