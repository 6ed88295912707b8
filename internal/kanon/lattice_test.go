package kanon

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"singlingout/internal/dataset"
	"singlingout/internal/synth"
)

func latticeFixture(t *testing.T) (*dataset.Dataset, []int, FullDomainOptions) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 800, ZIPs: 4, BlocksPerZIP: 2})
	if err != nil {
		t.Fatal(err)
	}
	zipI := pop.Schema.MustIndex(synth.AttrZIP)
	ageI := pop.Schema.MustIndex(synth.AttrAge)
	sexI := pop.Schema.MustIndex(synth.AttrSex)
	zipH, err := dataset.NewIntRangeHierarchy(10000, 10003, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ageH, err := dataset.NewIntRangeHierarchy(0, 110, 5, 20, 111)
	if err != nil {
		t.Fatal(err)
	}
	sexH, err := dataset.NewIntRangeHierarchy(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := FullDomainOptions{
		Hierarchies: map[int]*dataset.IntRangeHierarchy{zipI: zipH, ageI: ageH, sexI: sexH},
		MaxSuppress: 40,
	}
	return pop, []int{zipI, ageI, sexI}, opts
}

func TestOptimalFullDomainBeatsGreedy(t *testing.T) {
	pop, qi, opts := latticeFixture(t)
	greedy, _, err := FullDomain(pop, qi, 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	optimal, levels, evaluated, err := OptimalFullDomain(pop, qi, 20, opts, MinimizeGenILoss)
	if err != nil {
		t.Fatal(err)
	}
	checkReleaseInvariants(t, optimal, pop)
	if len(levels) != len(qi) {
		t.Fatalf("levels = %v", levels)
	}
	if evaluated != 3*4*2 { // lattice size: zip 3 levels × age 4 × sex 2
		t.Errorf("evaluated %d nodes, want 24", evaluated)
	}
	if GenILoss(optimal) > GenILoss(greedy)+1e-12 {
		t.Errorf("optimal loss %v should not exceed greedy loss %v",
			GenILoss(optimal), GenILoss(greedy))
	}
}

func TestOptimalFullDomainDiscernibility(t *testing.T) {
	pop, qi, opts := latticeFixture(t)
	byLoss, _, _, err := OptimalFullDomain(pop, qi, 10, opts, MinimizeGenILoss)
	if err != nil {
		t.Fatal(err)
	}
	byDisc, _, _, err := OptimalFullDomain(pop, qi, 10, opts, MinimizeDiscernibility)
	if err != nil {
		t.Fatal(err)
	}
	if Discernibility(byDisc, pop.Len()) > Discernibility(byLoss, pop.Len()) {
		t.Errorf("discernibility-optimal (%d) should not exceed loss-optimal (%d)",
			Discernibility(byDisc, pop.Len()), Discernibility(byLoss, pop.Len()))
	}
}

func TestOptimalFullDomainErrors(t *testing.T) {
	pop, qi, opts := latticeFixture(t)
	if _, _, _, err := OptimalFullDomain(pop, qi, 0, opts, MinimizeGenILoss); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, _, err := OptimalFullDomain(pop, nil, 5, opts, MinimizeGenILoss); err == nil {
		t.Error("empty QI should fail")
	}
	diseaseI := pop.Schema.MustIndex(synth.AttrDisease)
	if _, _, _, err := OptimalFullDomain(pop, []int{qi[0], diseaseI}, 5, FullDomainOptions{
		Hierarchies: map[int]*dataset.IntRangeHierarchy{qi[0]: opts.Hierarchies[qi[0]]},
	}, MinimizeGenILoss); err == nil {
		t.Error("missing hierarchy should fail")
	}
	// Impossible requirement: k larger than the dataset with no allowance.
	if _, _, _, err := OptimalFullDomain(pop, qi, pop.Len()+1, FullDomainOptions{
		Hierarchies: opts.Hierarchies,
	}, MinimizeGenILoss); err == nil {
		t.Error("unachievable k should fail")
	}
}

func TestWriteGeneralizedCSV(t *testing.T) {
	pop, qi, _ := latticeFixture(t)
	rel, err := Mondrian(pop, qi, 5, MondrianOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGeneralizedCSV(&buf, pop, rel); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	released := 0
	for _, c := range rel.Classes {
		released += len(c.Rows)
	}
	if len(lines) != released+1 {
		t.Fatalf("lines = %d, want header + %d rows", len(lines), released)
	}
	if !strings.HasPrefix(lines[0], "zip,birthdate,age,sex") {
		t.Errorf("header = %q", lines[0])
	}
	// QI cells must be generalized labels, which for multi-value intervals
	// contain a dash; the age column (a QI in this fixture) should show
	// generalization on at least some rows.
	dashes := 0
	for _, l := range lines[1:] {
		if strings.Contains(strings.Split(l, ",")[2], "-") {
			dashes++
		}
	}
	if dashes == 0 {
		t.Error("no generalized age cells in output")
	}
	// Schema mismatch rejected.
	other := dataset.New(dataset.MustSchema(dataset.Attribute{Name: "x", Kind: dataset.Int, Max: 1}))
	if err := WriteGeneralizedCSV(&buf, other, rel); err == nil {
		t.Error("schema mismatch should fail")
	}
}
