package dataset

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func toySchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "zip", Kind: Int, Min: 10000, Max: 99999, QuasiIdentifier: true},
		Attribute{Name: "age", Kind: Int, Min: 0, Max: 120, QuasiIdentifier: true},
		Attribute{Name: "sex", Kind: Categorical, Categories: []string{"F", "M"}, QuasiIdentifier: true},
		Attribute{Name: "disease", Kind: Categorical, Categories: []string{"COVID", "CF", "Asthma"}, Sensitive: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaRejectsBadInput(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
	}{
		{"empty name", []Attribute{{Name: ""}}},
		{"duplicate", []Attribute{{Name: "a", Kind: Int, Max: 1}, {Name: "a", Kind: Int, Max: 1}}},
		{"no categories", []Attribute{{Name: "c", Kind: Categorical}}},
		{"empty domain", []Attribute{{Name: "i", Kind: Int, Min: 5, Max: 4}}},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.attrs...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSchemaLookup(t *testing.T) {
	s := toySchema(t)
	if i, ok := s.Index("sex"); !ok || i != 2 {
		t.Errorf("Index(sex) = %d,%v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should be absent")
	}
	if got := s.MustIndex("age"); got != 1 {
		t.Errorf("MustIndex(age) = %d", got)
	}
	qi := s.QuasiIdentifiers()
	if len(qi) != 3 || qi[0] != 0 || qi[2] != 2 {
		t.Errorf("QuasiIdentifiers = %v", qi)
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	toySchema(t).MustIndex("ghost")
}

func TestAttributeParseAndRender(t *testing.T) {
	s := toySchema(t)
	sex := &s.Attrs[2]
	v, err := sex.Parse("M")
	if err != nil || v != 1 {
		t.Errorf("Parse(M) = %d, %v", v, err)
	}
	if _, err := sex.Parse("X"); err == nil {
		t.Error("Parse(X) should fail")
	}
	if sex.ValueString(0) != "F" {
		t.Errorf("ValueString(0) = %q", sex.ValueString(0))
	}
	if !strings.Contains(sex.ValueString(9), "invalid") {
		t.Errorf("ValueString(9) = %q, want invalid marker", sex.ValueString(9))
	}
	age := &s.Attrs[1]
	if _, err := age.Parse("130"); err == nil {
		t.Error("out-of-domain parse should fail")
	}
	if _, err := age.Parse("abc"); err == nil {
		t.Error("non-numeric parse should fail")
	}
	if age.DomainSize() != 121 {
		t.Errorf("age domain size = %d", age.DomainSize())
	}
	if sex.DomainSize() != 2 {
		t.Errorf("sex domain size = %d", sex.DomainSize())
	}
}

func TestRecordOps(t *testing.T) {
	r := Record{1, 2, 3}
	c := r.Clone()
	c[0] = 9
	if r[0] != 1 {
		t.Error("Clone should not share storage")
	}
	if r.Key([]int{0, 2}) != "1|3|" {
		t.Errorf("Key = %q", r.Key([]int{0, 2}))
	}
}

func TestDatasetAppendAndCount(t *testing.T) {
	d := New(toySchema(t))
	if err := d.Append(Record{23456, 55, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Record{1, 2}); err == nil {
		t.Error("short record should be rejected")
	}
	d.MustAppend(Record{12345, 30, 1, 1})
	d.MustAppend(Record{12346, 33, 0, 2})
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	females := d.Count(func(r Record) bool { return r[2] == 0 })
	if females != 2 {
		t.Errorf("Count females = %d", females)
	}
}

func TestDatasetCloneIsDeep(t *testing.T) {
	d := New(toySchema(t))
	d.MustAppend(Record{23456, 55, 0, 0})
	c := d.Clone()
	c.Rows[0][1] = 99
	if d.Rows[0][1] != 55 {
		t.Error("Clone should deep-copy rows")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := New(toySchema(t))
	d.MustAppend(Record{23456, 55, 0, 0})
	d.MustAppend(Record{12345, 30, 1, 1})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || !slices.Equal(back.Rows[0], d.Rows[0]) || !slices.Equal(back.Rows[1], d.Rows[1]) {
		t.Errorf("round trip mismatch: %v", back.Rows)
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := toySchema(t)
	if _, err := ReadCSV(strings.NewReader("a,b\n"), s); err == nil {
		t.Error("wrong header width should fail")
	}
	if _, err := ReadCSV(strings.NewReader("zip,age,sex,illness\n"), s); err == nil {
		t.Error("wrong header name should fail")
	}
	if _, err := ReadCSV(strings.NewReader("zip,age,sex,disease\n23456,55,F,PLAGUE\n"), s); err == nil {
		t.Error("unknown category should fail")
	}
	if _, err := ReadCSV(strings.NewReader(""), s); err == nil {
		t.Error("empty input should fail on header")
	}
}

func TestIntRangeHierarchy(t *testing.T) {
	h, err := NewIntRangeHierarchy(0, 120, 10, 40, 121)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 4 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	if h.GroupOf(55, 0) != 55 {
		t.Error("level 0 must be identity")
	}
	if h.GroupOf(55, 1) != 5 {
		t.Errorf("GroupOf(55,1) = %d", h.GroupOf(55, 1))
	}
	if got := h.Label(5, 1); got != "50-59" {
		t.Errorf("Label(5,1) = %q", got)
	}
	if got := h.Label(0, 3); got != "*" {
		t.Errorf("top label = %q", got)
	}
	if got := h.GroupSize(5, 1); got != 10 {
		t.Errorf("GroupSize(5,1) = %d", got)
	}
	// Clipped group at the top of the domain.
	if got := h.GroupSize(12, 1); got != 1 { // values {120}
		t.Errorf("GroupSize(12,1) = %d", got)
	}
	if got := h.Label(12, 1); got != "120" {
		t.Errorf("Label(12,1) = %q", got)
	}
}

func TestIntRangeHierarchyRejectsBadWidths(t *testing.T) {
	if _, err := NewIntRangeHierarchy(0, 10, 5, 5); err == nil {
		t.Error("non-increasing widths should fail")
	}
	if _, err := NewIntRangeHierarchy(10, 0); err == nil {
		t.Error("empty domain should fail")
	}
}

func TestIntRangeHierarchyGroupConsistency(t *testing.T) {
	h, _ := NewIntRangeHierarchy(0, 999, 10, 100, 1000)
	f := func(raw uint16, lvlRaw uint8) bool {
		v := int64(raw) % 1000
		lvl := int(lvlRaw) % h.Levels()
		g := h.GroupOf(v, lvl)
		lo, hi := h.Bounds(g, lvl)
		return lo <= v && v <= hi && h.GroupSize(g, lvl) == hi-lo+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTreeHierarchy(t *testing.T) {
	h := MustTreeHierarchy([][]string{
		{"PULM", "*"}, // COVID
		{"PULM", "*"}, // CF
		{"PULM", "*"}, // Asthma
		{"GI", "*"},   // Crohn
	})
	if h.Levels() != 3 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	if h.GroupOf(2, 0) != 2 {
		t.Error("level 0 identity")
	}
	if h.GroupOf(0, 1) != h.GroupOf(2, 1) {
		t.Error("COVID and Asthma should share level-1 group")
	}
	if h.GroupOf(0, 1) == h.GroupOf(3, 1) {
		t.Error("COVID and Crohn should differ at level 1")
	}
	if h.GroupOf(0, 2) != h.GroupOf(3, 2) {
		t.Error("all categories share the top group")
	}
	if h.Label(h.GroupOf(3, 1), 1) != "GI" {
		t.Errorf("label = %q", h.Label(h.GroupOf(3, 1), 1))
	}
	if h.GroupSize(h.GroupOf(0, 1), 1) != 3 {
		t.Errorf("PULM size = %d", h.GroupSize(h.GroupOf(0, 1), 1))
	}
	if h.GroupSize(0, 0) != 1 {
		t.Error("leaf groups have size 1")
	}
}

func TestTreeHierarchyErrors(t *testing.T) {
	if _, err := NewTreeHierarchy(nil); err == nil {
		t.Error("empty hierarchy should fail")
	}
	if _, err := NewTreeHierarchy([][]string{{}}); err == nil {
		t.Error("zero-depth paths should fail")
	}
	if _, err := NewTreeHierarchy([][]string{{"A", "*"}, {"B"}}); err == nil {
		t.Error("ragged paths should fail")
	}
}
