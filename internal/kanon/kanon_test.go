package kanon

import (
	"math/rand"
	"strings"
	"testing"

	"singlingout/internal/dataset"
	"singlingout/internal/synth"
)

// paperToy builds the 4-record example from Section 1.1 of the paper.
func paperToy(t *testing.T) *dataset.Dataset {
	t.Helper()
	s := dataset.MustSchema(
		dataset.Attribute{Name: "zip", Kind: dataset.Int, Min: 10000, Max: 99999, QuasiIdentifier: true},
		dataset.Attribute{Name: "age", Kind: dataset.Int, Min: 0, Max: 120, QuasiIdentifier: true},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Categories: []string{"F", "M"}, QuasiIdentifier: true},
		dataset.Attribute{Name: "disease", Kind: dataset.Categorical, Categories: []string{"COVID", "CF", "Asthma"}, Sensitive: true},
	)
	d := dataset.New(s)
	d.MustAppend(dataset.Record{23456, 55, 0, 0})
	d.MustAppend(dataset.Record{23456, 42, 0, 0})
	d.MustAppend(dataset.Record{12345, 30, 1, 1})
	d.MustAppend(dataset.Record{12346, 33, 0, 2})
	return d
}

func checkReleaseInvariants(t *testing.T, rel *Release, d *dataset.Dataset) {
	t.Helper()
	if !rel.IsKAnonymous() {
		t.Fatalf("release is not %d-anonymous", rel.K)
	}
	// Every row appears exactly once across classes + suppressed.
	seen := make([]int, d.Len())
	for _, c := range rel.Classes {
		for _, r := range c.Rows {
			seen[r]++
		}
		// Class cells must cover each member's raw values.
		for _, r := range c.Rows {
			if !c.Matches(d.Rows[r], rel.QI) {
				t.Fatalf("class does not cover its own member %d", r)
			}
		}
	}
	for _, r := range rel.Suppressed {
		seen[r]++
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("row %d appears %d times in release", i, n)
		}
	}
}

func TestMondrianToyExample(t *testing.T) {
	d := paperToy(t)
	qi := d.Schema.QuasiIdentifiers()
	rel, err := Mondrian(d, qi, 2, MondrianOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkReleaseInvariants(t, rel, d)
	if len(rel.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(rel.Classes))
	}
	if len(rel.Suppressed) != 0 {
		t.Errorf("suppressed = %v, want none", rel.Suppressed)
	}
	// The two COVID females must share a class (as in the paper's x').
	ci0, ci1 := rel.ClassOf(0), rel.ClassOf(1)
	if ci0 != ci1 {
		t.Errorf("rows 0 and 1 in different classes (%d, %d)", ci0, ci1)
	}
}

func TestMondrianRejectsBadInput(t *testing.T) {
	d := paperToy(t)
	if _, err := Mondrian(d, nil, 2, MondrianOptions{}); err == nil {
		t.Error("empty QI should fail")
	}
	if _, err := Mondrian(d, []int{0}, 0, MondrianOptions{}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Mondrian(d, []int{99}, 2, MondrianOptions{}); err == nil {
		t.Error("bad attribute index should fail")
	}
}

func TestMondrianTinyDatasetSuppressed(t *testing.T) {
	d := paperToy(t)
	rel, err := Mondrian(d, d.Schema.QuasiIdentifiers(), 10, MondrianOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Classes) != 0 || len(rel.Suppressed) != 4 {
		t.Errorf("want full suppression, got %d classes %d suppressed", len(rel.Classes), len(rel.Suppressed))
	}
}

func TestMondrianOnPopulationSweepK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 2000, ZIPs: 8, BlocksPerZIP: 4})
	qi := []int{
		pop.Schema.MustIndex(synth.AttrZIP),
		pop.Schema.MustIndex(synth.AttrAge),
		pop.Schema.MustIndex(synth.AttrSex),
	}
	var prevClasses int
	for i, k := range []int{2, 5, 10, 50} {
		rel, err := Mondrian(pop, qi, k, MondrianOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkReleaseInvariants(t, rel, pop)
		if i > 0 && len(rel.Classes) > prevClasses {
			t.Errorf("k=%d produced more classes (%d) than smaller k (%d)", k, len(rel.Classes), prevClasses)
		}
		prevClasses = len(rel.Classes)
	}
}

func TestMondrianRelaxedBeatsStrictOnInfoLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 1000, ZIPs: 6, BlocksPerZIP: 3})
	qi := []int{pop.Schema.MustIndex(synth.AttrZIP), pop.Schema.MustIndex(synth.AttrAge)}
	strict, err := Mondrian(pop, qi, 7, MondrianOptions{Policy: StrictMedian})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Mondrian(pop, qi, 7, MondrianOptions{Policy: RelaxedBalanced})
	if err != nil {
		t.Fatal(err)
	}
	checkReleaseInvariants(t, strict, pop)
	checkReleaseInvariants(t, relaxed, pop)
	if len(relaxed.Classes) < len(strict.Classes) {
		t.Errorf("relaxed (%d classes) should split at least as finely as strict (%d)",
			len(relaxed.Classes), len(strict.Classes))
	}
}

func TestMondrianLDiversityEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 1500, ZIPs: 5, BlocksPerZIP: 3})
	qi := []int{pop.Schema.MustIndex(synth.AttrZIP), pop.Schema.MustIndex(synth.AttrAge)}
	sens := pop.Schema.MustIndex(synth.AttrDisease)
	rel, err := Mondrian(pop, qi, 4, MondrianOptions{MinLDiversity: 3, SensitiveAttr: sens})
	if err != nil {
		t.Fatal(err)
	}
	checkReleaseInvariants(t, rel, pop)
	if got := LDiversity(rel, pop, sens); got < 3 {
		t.Errorf("ℓ-diversity = %d, want >= 3", got)
	}
}

func TestFullDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 1000, ZIPs: 4, BlocksPerZIP: 2})
	ageI := pop.Schema.MustIndex(synth.AttrAge)
	zipI := pop.Schema.MustIndex(synth.AttrZIP)
	ageH, err := dataset.NewIntRangeHierarchy(0, 110, 10, 40, 111)
	if err != nil {
		t.Fatal(err)
	}
	zipH, err := dataset.NewIntRangeHierarchy(10000, 10003, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rel, levels, err := FullDomain(pop, []int{zipI, ageI}, 25, FullDomainOptions{
		Hierarchies: map[int]*dataset.IntRangeHierarchy{zipI: zipH, ageI: ageH},
		MaxSuppress: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkReleaseInvariants(t, rel, pop)
	if len(levels) != 2 {
		t.Fatalf("levels = %v", levels)
	}
	if len(rel.Suppressed) > 20 {
		t.Errorf("suppressed %d > allowance 20", len(rel.Suppressed))
	}
	// Full-domain property: all classes share the same cell granularity
	// per attribute (same hierarchy level); verify via Size consistency
	// per level group count.
	for _, c := range rel.Classes {
		for j := range c.Cells {
			g, ok := c.Cells[j].(HierarchyGroup)
			if !ok {
				t.Fatal("full-domain cells must be hierarchy groups")
			}
			if g.Level != levels[j] {
				t.Errorf("cell level %d != release level %d", g.Level, levels[j])
			}
		}
	}
}

func TestFullDomainNeedsHierarchies(t *testing.T) {
	d := paperToy(t)
	_, _, err := FullDomain(d, []int{0}, 2, FullDomainOptions{})
	if err == nil {
		t.Error("missing hierarchy should fail")
	}
	if _, _, err := FullDomain(d, nil, 2, FullDomainOptions{}); err == nil {
		t.Error("empty QI should fail")
	}
	if _, _, err := FullDomain(d, []int{0}, 0, FullDomainOptions{}); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestFullDomainExhaustedHierarchySuppresses(t *testing.T) {
	// Two lonely records with a flat hierarchy cannot reach k=3; they must
	// be suppressed even with MaxSuppress 0.
	s := dataset.MustSchema(dataset.Attribute{Name: "a", Kind: dataset.Int, Min: 0, Max: 9})
	d := dataset.New(s)
	d.MustAppend(dataset.Record{1})
	d.MustAppend(dataset.Record{2})
	h, _ := dataset.NewIntRangeHierarchy(0, 9, 10)
	rel, _, err := FullDomain(d, []int{0}, 3, FullDomainOptions{
		Hierarchies: map[int]*dataset.IntRangeHierarchy{0: h},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Suppressed) != 2 || len(rel.Classes) != 0 {
		t.Errorf("want all rows suppressed, got %d classes %d suppressed", len(rel.Classes), len(rel.Suppressed))
	}
}

func TestMetricsOnToy(t *testing.T) {
	d := paperToy(t)
	rel, _ := Mondrian(d, d.Schema.QuasiIdentifiers(), 2, MondrianOptions{})
	if got := Discernibility(rel, d.Len()); got != 8 { // two classes of 2: 4+4
		t.Errorf("Discernibility = %d, want 8", got)
	}
	if got := AvgClassSize(rel); got != 1.0 {
		t.Errorf("AvgClassSize = %v, want 1.0", got)
	}
	loss := GenILoss(rel)
	if loss <= 0 || loss >= 1 {
		t.Errorf("GenILoss = %v, want in (0,1)", loss)
	}
	// Suppression dominates the metrics.
	relSup, _ := Mondrian(d, d.Schema.QuasiIdentifiers(), 10, MondrianOptions{})
	if got := Discernibility(relSup, d.Len()); got != 16 {
		t.Errorf("suppressed Discernibility = %d, want 16", got)
	}
	if got := GenILoss(relSup); got != 1 {
		t.Errorf("suppressed GenILoss = %v, want 1", got)
	}
	if got := AvgClassSize(relSup); got != 0 {
		t.Errorf("AvgClassSize with no classes = %v, want 0", got)
	}
}

func TestLDiversityAndTCloseness(t *testing.T) {
	d := paperToy(t)
	rel, _ := Mondrian(d, d.Schema.QuasiIdentifiers(), 2, MondrianOptions{})
	sens := d.Schema.MustIndex("disease")
	// Class {0,1} has only COVID → ℓ = 1.
	if got := LDiversity(rel, d, sens); got != 1 {
		t.Errorf("LDiversity = %d, want 1", got)
	}
	tc := TCloseness(rel, d, sens)
	// Global: COVID 1/2, CF 1/4, Asthma 1/4. Class {0,1}: COVID 1.
	// TV distance = (|1-1/2| + 1/4 + 1/4)/2 = 1/2.
	if tc < 0.49 || tc > 0.51 {
		t.Errorf("TCloseness = %v, want 0.5", tc)
	}
}

func TestIntersectionAttackSinglesOut(t *testing.T) {
	// Two 2-anonymous releases over the same data with different QI
	// subsets can isolate individuals (k-anonymity fails to compose).
	s := dataset.MustSchema(
		dataset.Attribute{Name: "a", Kind: dataset.Int, Min: 0, Max: 9},
		dataset.Attribute{Name: "b", Kind: dataset.Int, Min: 0, Max: 9},
	)
	d := dataset.New(s)
	// Rows laid out so that splitting on a vs b yields crossing classes.
	d.MustAppend(dataset.Record{0, 0})
	d.MustAppend(dataset.Record{0, 9})
	d.MustAppend(dataset.Record{9, 0})
	d.MustAppend(dataset.Record{9, 9})
	relA, err := Mondrian(d, []int{0}, 2, MondrianOptions{})
	if err != nil {
		t.Fatal(err)
	}
	relB, err := Mondrian(d, []int{1}, 2, MondrianOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkReleaseInvariants(t, relA, d)
	checkReleaseInvariants(t, relB, d)
	cands := IntersectionAttack(relA, relB, d)
	for i, n := range cands {
		if n != 1 {
			t.Errorf("row %d candidates = %d, want 1 (singled out)", i, n)
		}
	}
}

func TestIntersectionAttackSuppressedRows(t *testing.T) {
	d := paperToy(t)
	relA, _ := Mondrian(d, d.Schema.QuasiIdentifiers(), 2, MondrianOptions{})
	relSup, _ := Mondrian(d, d.Schema.QuasiIdentifiers(), 10, MondrianOptions{})
	cands := IntersectionAttack(relA, relSup, d)
	for i, n := range cands {
		if n != 0 {
			t.Errorf("row %d candidates = %d, want 0 for suppressed release", i, n)
		}
	}
}

func TestClassOf(t *testing.T) {
	d := paperToy(t)
	rel, _ := Mondrian(d, d.Schema.QuasiIdentifiers(), 2, MondrianOptions{})
	for i := 0; i < d.Len(); i++ {
		ci := rel.ClassOf(i)
		if ci < 0 {
			t.Fatalf("row %d not in any class", i)
		}
	}
	if rel.ClassOf(99) != -1 {
		t.Error("unknown row should return -1")
	}
}

func TestValueSetLabels(t *testing.T) {
	iv := Interval{Lo: 3, Hi: 3}
	if iv.Label() != "3" || iv.Size() != 1 || !iv.Contains(3) || iv.Contains(4) {
		t.Errorf("Interval point semantics broken: %+v", iv)
	}
	iv = Interval{Lo: 1, Hi: 4}
	if iv.Label() != "1-4" || iv.Size() != 4 {
		t.Errorf("Interval range semantics broken: %+v", iv)
	}
	// Ages 0–94 in decades: the last decade is clipped to the domain.
	h, err := dataset.NewIntRangeHierarchy(0, 94, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	g := HierarchyGroup{H: h, Level: 1, Group: h.GroupOf(92, 1)}
	if g.Label() != "90-94" || g.Size() != 5 || !g.Contains(90) || !g.Contains(94) || g.Contains(89) {
		t.Errorf("HierarchyGroup semantics broken: %+v", g)
	}
	if top := (HierarchyGroup{H: h, Level: 2, Group: h.GroupOf(92, 2)}); top.Label() != "*" || top.Size() != 95 || !top.Contains(0) {
		t.Errorf("top HierarchyGroup semantics broken: %+v", top)
	}
}

// TestWriteGeneralizedCSVCategoryNames: a released categorical cell
// reads by category name, whether it is one category, a Mondrian
// interval over some of them, or a full-domain group over all of them;
// numeric cells keep their labels and other attributes are verbatim.
func TestWriteGeneralizedCSVCategoryNames(t *testing.T) {
	s := dataset.MustSchema(
		dataset.Attribute{Name: "blood", Kind: dataset.Categorical, Categories: []string{"A", "B", "O"}, QuasiIdentifier: true},
		dataset.Attribute{Name: "age", Kind: dataset.Int, Min: 0, Max: 99, QuasiIdentifier: true},
		dataset.Attribute{Name: "disease", Kind: dataset.Categorical, Categories: []string{"CF", "Asthma"}, Sensitive: true},
	)
	d := dataset.New(s)
	d.MustAppend(dataset.Record{0, 31, 0})
	d.MustAppend(dataset.Record{1, 35, 1})
	d.MustAppend(dataset.Record{2, 40, 1})
	d.MustAppend(dataset.Record{2, 40, 0})
	d.MustAppend(dataset.Record{0, 72, 0})
	d.MustAppend(dataset.Record{2, 78, 1})
	bloodH, err := dataset.NewIntRangeHierarchy(0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ageH, err := dataset.NewIntRangeHierarchy(0, 99, 10)
	if err != nil {
		t.Fatal(err)
	}
	rel := &Release{Schema: s, QI: []int{0, 1}, K: 2, Classes: []Class{
		{Cells: []ValueSet{Interval{Lo: 0, Hi: 1}, Interval{Lo: 31, Hi: 35}}, Rows: []int{0, 1}},
		{Cells: []ValueSet{Interval{Lo: 2, Hi: 2}, Interval{Lo: 40, Hi: 40}}, Rows: []int{2, 3}},
		{Cells: []ValueSet{HierarchyGroup{H: bloodH, Level: 1, Group: 0}, HierarchyGroup{H: ageH, Level: 1, Group: 7}}, Rows: []int{4, 5}},
	}}
	var out strings.Builder
	if err := WriteGeneralizedCSV(&out, d, rel); err != nil {
		t.Fatal(err)
	}
	want := `blood,age,disease
A|B,31-35,CF
A|B,31-35,Asthma
O,40,Asthma
O,40,CF
*,70-79,CF
*,70-79,Asthma
`
	if got := out.String(); got != want {
		t.Errorf("release CSV:\n%s\nwant:\n%s", got, want)
	}
}

// Matches reports whether a raw record falls inside the class's cells.
func (c *Class) Matches(r dataset.Record, qi []int) bool {
	for j, cell := range c.Cells {
		if !cell.Contains(r[qi[j]]) {
			return false
		}
	}
	return true
}

// ClassOf returns the index of the class containing the given original row,
// or -1 if the row was suppressed.
func (r *Release) ClassOf(row int) int {
	for ci := range r.Classes {
		for _, x := range r.Classes[ci].Rows {
			if x == row {
				return ci
			}
		}
	}
	return -1
}
