package pso

import (
	"math/rand"
	"testing"

	"singlingout/internal/dataset"
	"singlingout/internal/kanon"
	"singlingout/internal/synth"
)

// TestHashRecordGolden pins hashRecord's values, so that rewriting the
// hash loop can never change a predicate, and with it a table.
func TestHashRecordGolden(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		r    dataset.Record
		want uint64
	}{
		{0, dataset.Record{}, 0xcbf29ce484222325},
		{0, dataset.Record{0}, 0xa8c7f832281a39c5},
		{7, dataset.Record{10234, 40000, 55, 1, 2, 0, 4, 133}, 0xdc9c70f3528c0742},
		{42, dataset.Record{-1, -1 << 63, 1<<63 - 1}, 0x556c33b502a3be8b},
		{1<<64 - 1, dataset.Record{-123456789, 0x0102030405060708}, 0x295e5ca28074b891},
	} {
		if got := hashRecord(c.seed, c.r); got != c.want {
			t.Errorf("hashRecord(%d, %v) = %#x, want %#x", c.seed, c.r, got, c.want)
		}
	}
}

// memoDataset is a small survey dataset with one duplicated row, so some
// hash predicates count more than one record even at depth 63.
func memoDataset() *dataset.Dataset {
	rng := rand.New(rand.NewSource(3))
	scfg := synth.SurveyConfig{Questions: 8, Skew: 0.8}
	d := dataset.New(synth.SurveySchema(scfg))
	sample := synth.SurveySampler(scfg)
	for i := 0; i < 120; i++ {
		d.MustAppend(sample(rng))
	}
	d.MustAppend(append(dataset.Record(nil), d.Rows[17]...))
	return d
}

// memoQueries is a query sequence that keeps switching seeds within one
// oracle and mixes memoized and unmemoized predicates: HashPrefix at
// every depth 0–63 (with prefixes that hit a record and prefixes that
// miss), between them HashMod with M = 0 and M > 0, Equality, ClassBox
// and And, which the oracles count with IsolationCount.
func memoQueries(d *dataset.Dataset) []Predicate {
	seeds := []uint64{7, 0, 1<<64 - 1}
	box := ClassBox{QI: []int{1, 2}, Cells: []kanon.ValueSet{kanon.Interval{Lo: 0, Hi: 0}, kanon.Interval{Lo: 1, Hi: 1}}}
	var qs []Predicate
	for depth := 0; depth <= 63; depth++ {
		seed := seeds[depth%len(seeds)]
		hit := uint64(0)
		if depth > 0 {
			hit = hashRecord(seed, d.Rows[17]) >> (64 - uint(depth))
		}
		qs = append(qs,
			HashPrefix{Seed: seed, Depth: depth, Prefix: hit},
			HashPrefix{Seed: seed, Depth: depth, Prefix: hit ^ 1},
			HashPrefix{Seed: seeds[0], Depth: depth, Prefix: 0},
		)
		if depth%8 == 0 {
			m := uint64(depth/8 + 2)
			qs = append(qs,
				HashMod{Seed: seed, M: 0, Residue: 5},
				HashMod{Seed: seed, M: m, Residue: hashRecord(seed, d.Rows[3]) % m},
				Equality{Attr: 1, Value: d.Rows[depth][1]},
				box,
				And{Parts: []Predicate{box, HashMod{Seed: seeds[1], M: 3, Residue: 1}}},
			)
		}
	}
	return qs
}

// TestCountOracleMemoMatchesIsolationCount: the memoized exact counts
// are IsolationCount's, query for query.
func TestCountOracleMemoMatchesIsolationCount(t *testing.T) {
	d := memoDataset()
	qs := memoQueries(d)
	y, err := (InteractiveCounts{Limit: len(qs)}).Release(rand.New(rand.NewSource(1)), d)
	if err != nil {
		t.Fatal(err)
	}
	o := y.(*CountOracle)
	hits := 0
	for i, p := range qs {
		got, err := o.Count(p)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := IsolationCount(p, d)
		if got != float64(want) {
			t.Errorf("query %d [%s]: Count = %v, IsolationCount = %d", i, p.Describe(), got, want)
		}
		if want > 0 {
			hits++
		}
	}
	if hits < len(qs)/3 {
		t.Errorf("only %d of %d queries count a record; the comparison is mostly vacuous", hits, len(qs))
	}
}
