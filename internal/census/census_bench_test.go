package census_test

import (
	"math/rand"
	"testing"

	"singlingout/internal/census"
	"singlingout/internal/obs"
	"singlingout/internal/synth"
)

// BenchmarkReconstructCensusSat times census.ReconstructAll at the
// census-sat benchmark's shape: populations of 160 persons in 16 blocks,
// a 500,000-conflict budget per block and 2 workers. Successive
// iterations cycle through 8 populations drawn at seed 1, so at a
// -benchtime that is a multiple of 8 (make gobench runs 16x) each
// population weighs the same and props/op, the SAT propagations per
// population, repeats exactly from run to run. It uses only the exported
// API, so it can be copied into another checkout for a before/after.
func BenchmarkReconstructCensusSat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := census.DefaultConfig()
	var pops [][]census.BlockTables
	for range 8 {
		pop, err := synth.Population(rng, synth.PopulationConfig{N: 160, ZIPs: 1, BlocksPerZIP: 16})
		if err != nil {
			b.Fatal(err)
		}
		pops = append(pops, census.Tabulate(pop, cfg))
	}
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	props := reg.Counter("sat.propagations")
	p0 := props.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := census.ReconstructAll(pops[i%len(pops)], cfg, 500_000, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(props.Value()-p0)/float64(b.N), "props/op")
}
