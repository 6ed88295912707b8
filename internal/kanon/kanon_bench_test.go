package kanon

import (
	"math/rand"
	"testing"

	"singlingout/internal/dataset"
	"singlingout/internal/synth"
)

func benchMondrian(b *testing.B, n, k int) {
	rng := rand.New(rand.NewSource(1))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: n, ZIPs: 10, BlocksPerZIP: 10})
	if err != nil {
		b.Fatal(err)
	}
	qi := []int{
		pop.Schema.MustIndex(synth.AttrZIP),
		pop.Schema.MustIndex(synth.AttrBirthDate),
		pop.Schema.MustIndex(synth.AttrSex),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := Mondrian(pop, qi, k, MondrianOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !rel.IsKAnonymous() {
			b.Fatal("not k-anonymous")
		}
	}
}

func BenchmarkMondrian2kK5(b *testing.B)   { benchMondrian(b, 2000, 5) }
func BenchmarkMondrian10kK10(b *testing.B) { benchMondrian(b, 10000, 10) }

func BenchmarkFullDomain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 2000, ZIPs: 8, BlocksPerZIP: 4})
	if err != nil {
		b.Fatal(err)
	}
	zipI := pop.Schema.MustIndex(synth.AttrZIP)
	ageI := pop.Schema.MustIndex(synth.AttrAge)
	zipH, err := dataset.NewIntRangeHierarchy(10000, 10007, 2, 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	ageH, err := dataset.NewIntRangeHierarchy(0, 110, 5, 20, 111)
	if err != nil {
		b.Fatal(err)
	}
	opts := FullDomainOptions{
		Hierarchies: map[int]*dataset.IntRangeHierarchy{zipI: zipH, ageI: ageH},
		MaxSuppress: 100,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FullDomain(pop, []int{zipI, ageI}, 25, opts); err != nil {
			b.Fatal(err)
		}
	}
}
