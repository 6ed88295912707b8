package lp_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// lpReconShape draws the lp-recon benchmark's shape over n records (48
// in lp-recon): m = 4n random subset queries, and answer vectors for two
// datasets, each at the noise levels c·√n for c in 0, 0.25, 0.5, 1, 2.
func lpReconShape(b *testing.B, n int) (qs [][]int, pool [][]float64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
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
	return qs, pool
}

// counting enables the default registry for the benchmark and returns
// its lp.pivots counter.
func counting(b *testing.B) *obs.Counter {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	b.Cleanup(func() { reg.SetEnabled(wasEnabled) })
	return reg.Counter("lp.pivots")
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
// different answer vectors on the decoder's one reused lp.Solver. It
// reports the simplex pivots per decode and the time per pivot.
func BenchmarkDecodeLPRecon(b *testing.B) {
	ctx := context.Background()
	const n = 48
	qs, pool := lpReconShape(b, n)
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		b.Fatal(err)
	}
	pivots := counting(b)
	p0 := pivots.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dec.Decode(ctx, pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPivots(b, pivots.Value()-p0, b.N, "op")
}

// BenchmarkStreamPush times one streaming session that pushes the
// whole workload in equal chunks, on the lp-recon benchmark's shape
// (lpReconShape) at two sizes: lp-recon's n = 48 in 8 pushes of 24
// answers, and E02.stream's quick n = 64 in 16 pushes of 16, the path
// an anytime attacker takes. Each push solves its LP cold. It reports
// the simplex pivots per push and the time per pivot; compare its
// allocations too.
func BenchmarkStreamPush(b *testing.B) {
	for _, c := range []struct{ n, chunk int }{{48, 24}, {64, 16}} {
		b.Run(fmt.Sprintf("n=%d,chunk=%d", c.n, c.chunk), func(b *testing.B) {
			benchStream(b, c.n, c.chunk)
		})
	}
}

func benchStream(b *testing.B, n, chunk int) {
	ctx := context.Background()
	qs, pool := lpReconShape(b, n)
	pushes := len(qs) / chunk
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		b.Fatal(err)
	}
	pivots := counting(b)
	p0 := pivots.Value()
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
	reportPivots(b, pivots.Value()-p0, b.N*pushes, "push")
}
