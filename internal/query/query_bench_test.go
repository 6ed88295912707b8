package query

import (
	"math/rand"
	"testing"
)

// sinkSubsets keeps the benchmarked draws from being optimized away.
var sinkSubsets [][]int

// BenchmarkRandomSubsets draws one batch of random subsets at the
// serving benchmark's shape (32 queries over n = 256) and at lp-recon's
// (m = 4n = 192 queries over n = 48).
func BenchmarkRandomSubsets(b *testing.B) {
	for _, s := range []struct {
		name string
		n, m int
	}{{"256x32", 256, 32}, {"48x192", 48, 192}} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSubsets = RandomSubsets(rng, s.n, s.m)
			}
		})
	}
}
