package pso

import (
	"math/rand"
	"testing"

	"singlingout/internal/dataset"
	"singlingout/internal/synth"
)

// Sinks keep the compiler from discarding the measured calls: with its
// result unused, an inlined hash predicate's arithmetic is dead code.
var (
	benchCount int
	benchMatch bool
)

func BenchmarkIsolationCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scfg := synth.SurveyConfig{Questions: 40, Skew: 0.8}
	d := dataset.New(synth.SurveySchema(scfg))
	sample := synth.SurveySampler(scfg)
	for i := 0; i < 1000; i++ {
		d.MustAppend(sample(rng))
	}
	p := HashPrefix{Seed: 7, Depth: 20, Prefix: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCount = IsolationCount(p, d)
	}
}

func BenchmarkHashPrefixEval(b *testing.B) {
	r := dataset.Record{10234, 40000, 55, 1, 2, 0, 4, 133}
	p := HashPrefix{Seed: 7, Depth: 30, Prefix: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMatch = p.Eval(r)
	}
}

func BenchmarkPrefixDescentTrial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scfg := synth.SurveyConfig{Questions: 8, Skew: 0.8}
	cfg := Config{
		N:      500,
		Schema: synth.SurveySchema(scfg),
		Sample: synth.SurveySampler(scfg),
		Tau:    1e-9,
		Trials: 1,
	}
	att := PrefixDescent{TargetDepth: 40}
	mech := InteractiveCounts{Limit: att.Queries()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(rng, cfg, mech, att); err != nil {
			b.Fatal(err)
		}
	}
}
