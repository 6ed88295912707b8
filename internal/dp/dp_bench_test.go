package dp

import (
	"math/rand"
	"testing"
)

func BenchmarkLaplaceCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		LaplaceCount(rng, 100, 1.0)
	}
}

func BenchmarkGeometricCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		GeometricCount(rng, 100, 1.0)
	}
}
