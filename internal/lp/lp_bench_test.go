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

// lpReconShape draws the lp-recon benchmark's shape at n = 48: m = 4n
// random subset queries, and answer vectors for two datasets, each at
// the noise levels c·√n for c in 0, 0.25, 0.5, 1, 2.
func lpReconShape(b *testing.B) (n int, qs [][]int, pool [][]float64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	n = 48
	qs = query.RandomSubsets(rng, n, 4*n)
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
	return n, qs, pool
}

// counting enables the default registry for the benchmark and returns
// its lp.pivots and lp.warm_starts counters.
func counting(b *testing.B) (pivots, warm *obs.Counter) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	b.Cleanup(func() { reg.SetEnabled(wasEnabled) })
	return reg.Counter("lp.pivots"), reg.Counter("lp.warm_starts")
}

// reportPivots reports the simplex pivots per unit of work and the
// timed nanoseconds per pivot, which reads a per-pivot gain apart from
// a change in pivot counts. b's timer must be stopped.
func reportPivots(b *testing.B, pivots int64, units int, unit string) {
	b.ReportMetric(float64(pivots)/float64(units), "pivots/"+unit)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
}

// BenchmarkDecodeLPRecon times recon.Decoder.Decode on the lp-recon
// benchmark's shape (lpReconShape). Successive iterations decode
// different answer vectors, none a replay of the one before, so each
// runs cold, on the decoder's one reused lp.Solver. It reports the
// simplex pivots per decode and the time per pivot.
func BenchmarkDecodeLPRecon(b *testing.B) {
	ctx := context.Background()
	n, qs, pool := lpReconShape(b)
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		b.Fatal(err)
	}
	pivots, warm := counting(b)
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
	reportPivots(b, pivots.Value()-p0, b.N, "op")
}

// BenchmarkStreamPush times one streaming session on the lp-recon shape
// (lpReconShape): 8 pushes of 24 answers each, the whole workload.
// Each session's first push solves cold and the other 7 warm-start by
// the dual simplex from the previous push's basis, the path an anytime
// attacker takes. It reports the simplex pivots per
// push and the time per pivot; compare its allocations too.
func BenchmarkStreamPush(b *testing.B) {
	const pushes, chunk = 8, 24
	ctx := context.Background()
	n, qs, pool := lpReconShape(b)
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		b.Fatal(err)
	}
	pivots, warm := counting(b)
	p0, w0 := pivots.Value(), warm.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers := pool[i%len(pool)]
		sd := dec.Stream()
		for k := 0; k < pushes; k++ {
			if _, _, err := sd.Push(ctx, answers[k*chunk:(k+1)*chunk]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if w, want := warm.Value()-w0, int64(b.N*(pushes-1)); w != want {
		b.Fatalf("%d warm starts in %d sessions, want %d", w, b.N, want)
	}
	reportPivots(b, pivots.Value()-p0, b.N*pushes, "push")
}
