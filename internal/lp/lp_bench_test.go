package lp_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// BenchmarkDecodeLPRecon times recon.Decoder.Decode on the lp-recon
// benchmark's shape: the L1Slack decoding LP for n = 48 and m = 4n
// random subset queries. Successive iterations decode different answer
// vectors (two datasets, each at the noise levels c·√n for c in 0, 0.25,
// 0.5, 1, 2), so every row moves between solves and each one runs cold
// through lp.Revised. It reports the simplex pivots per decode.
func BenchmarkDecodeLPRecon(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	n := 48
	qs := query.RandomSubsets(rng, n, 4*n)
	var pool [][]float64
	for range 2 {
		x := synth.BinaryDataset(rng, n, 0.5)
		for _, c := range []float64{0, 0.25, 0.5, 1, 2} {
			o := &query.BoundedNoise{X: x, Alpha: c * math.Sqrt(float64(n)), Rng: rng}
			a, err := o.Answer(ctx, qs)
			if err != nil {
				b.Fatal(err)
			}
			pool = append(pool, a)
		}
	}
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	pivots, warm := reg.Counter("lp.pivots"), reg.Counter("lp.warm_starts")
	p0, w0 := pivots.Value(), warm.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dec.Decode(ctx, pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if w := warm.Value() - w0; w != 0 {
		b.Fatalf("%d of %d decodes warm-started, want every one cold", w, b.N)
	}
	b.ReportMetric(float64(pivots.Value()-p0)/float64(b.N), "pivots/op")
}
