package obs

import (
	"path/filepath"
	"strings"
	"testing"
)

func benchPair() (BenchSummary, BenchSummary) {
	base := BenchSummary{
		Rev: "aaaaaaaaaaaa", Seed: 1, Quick: true, TotalSeconds: 3.0,
		Experiments: []BenchEntry{
			{ID: "E01", Seconds: 1.0, Counters: map[string]int64{"query.count": 1000, "sat.conflicts": 5}},
			{ID: "E02", Seconds: 1.5, Counters: map[string]int64{"lp.pivots": 900}},
			{ID: "E11", Seconds: 0.5},
			{ID: "E20", Seconds: 0.2},
			{ID: "E90", Seconds: 0.01},
		},
	}
	cur := BenchSummary{
		Rev: "bbbbbbbbbbbb", Seed: 1, Quick: true, TotalSeconds: 3.9,
		Experiments: []BenchEntry{
			{ID: "E01", Seconds: 1.0, Counters: map[string]int64{"query.count": 1000, "sat.conflicts": 5}},
			{ID: "E02", Seconds: 2.4, Counters: map[string]int64{"lp.pivots": 1800}}, // +60%, counter doubled
			{ID: "E11", Seconds: 0.5, Error: "boom"},
			{ID: "E21", Seconds: 0.1},  // E20 dropped, E21 added
			{ID: "E90", Seconds: 0.02}, // +100%, counters unchanged
		},
	}
	return base, cur
}

func TestDiffBenchRows(t *testing.T) {
	base, cur := benchPair()
	diff := DiffBench(base, cur)
	byID := map[string]BenchDelta{}
	for _, d := range diff.Rows {
		byID[d.ID] = d
	}
	if len(diff.Rows) != 6 { // 5 base rows + 1 new-only row
		t.Fatalf("rows = %d, want 6", len(diff.Rows))
	}
	if d := byID["E01"]; !d.InBase || !d.InNew || d.SecondsPct() != 0 || len(d.Counters) != 0 {
		t.Errorf("unchanged E01 delta = %+v", d)
	}
	d := byID["E02"]
	if got := d.SecondsPct(); got < 59.9 || got > 60.1 {
		t.Errorf("E02 pct = %v, want ~60", got)
	}
	if len(d.Counters) != 1 || d.Counters[0] != (CounterDelta{Name: "lp.pivots", Base: 900, New: 1800}) {
		t.Errorf("E02 counters = %+v", d.Counters)
	}
	if d := byID["E20"]; !d.InBase || d.InNew {
		t.Errorf("dropped base row = %+v", d)
	}
	if d := byID["E21"]; d.InBase || !d.InNew {
		t.Errorf("added new row = %+v", d)
	}
}

func TestBenchDiffFprint(t *testing.T) {
	base, cur := benchPair()
	var b strings.Builder
	if err := DiffBench(base, cur).Fprint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"aaaaaaaaaaaa", "bbbbbbbbbbbb",
		"E02", "+60.0%",
		"lp.pivots", "900 -> 1800",
		"TOTAL", "+30.0%",
		"gone", "new",
		`new err="boom"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}
}

// gateSummary is the baseline the rule tests edit: one row per counter
// family the quick run is gated on.
func gateSummary() BenchSummary {
	return BenchSummary{Rev: "aaaaaaaaaaaa", Seed: 1, Quick: true, Experiments: []BenchEntry{
		{ID: "E02", Seconds: 0.3, Counters: map[string]int64{"lp.pivots": 3921, "query.count": 4608}},
		{ID: "E10", Seconds: 20, Counters: map[string]int64{"pso.weight_draws": 4612500}},
		{ID: "E11", Seconds: 0.03, Counters: map[string]int64{"sat.propagations": 464436}},
		{ID: "BENCH.converge.q90", Seconds: 0.2, Counters: map[string]int64{"converge.queries": 32}},
	}}
}

// checkGate runs the rule on gateSummary edited by edit and wants one
// violation per substring in want, in order; no want means a pass.
func checkGate(t *testing.T, edit func(rows []BenchEntry) []BenchEntry, want ...string) {
	t.Helper()
	cur := gateSummary()
	cur.Rev = "bbbbbbbbbbbb"
	cur.Experiments = edit(cur.Experiments)
	got := DiffBench(gateSummary(), cur).Violations()
	if len(got) != len(want) {
		t.Fatalf("violations = %q, want %d matching %q", got, len(want), want)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("violation %d = %q, want it to contain %q", i, got[i], w)
		}
	}
}

// TestBenchDiffGate pins the one regression rule: the new summary must
// hold exactly the baseline's rows, each with the baseline's error text
// and exactly its counters. Wall clock never counts, and every breach
// names its row and counter.
func TestBenchDiffGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(rows []BenchEntry) []BenchEntry
		want []string // one substring per expected violation, in order; none = pass
	}{
		{"equal counters at 10x the seconds", func(rows []BenchEntry) []BenchEntry {
			for i := range rows {
				rows[i].Seconds *= 10
			}
			return rows
		}, nil},
		{"moved counter", func(rows []BenchEntry) []BenchEntry {
			rows[2].Counters["sat.propagations"] = 3237688
			return rows
		}, []string{"E11: sat.propagations 464436 -> 3237688"}},
		{"counter on the new side only", func(rows []BenchEntry) []BenchEntry {
			rows[0].Counters["lp.refactorizations"] = 168
			return rows
		}, []string{"E02: lp.refactorizations 0 -> 168"}},
		{"counter on the baseline side only", func(rows []BenchEntry) []BenchEntry {
			delete(rows[0].Counters, "query.count")
			return rows
		}, []string{"E02: query.count 4608 -> 0"}},
		{"extra row", func(rows []BenchEntry) []BenchEntry {
			return append(rows, BenchEntry{ID: "E20", Seconds: 0.1})
		}, []string{"E20: row not in the baseline"}},
		{"new error", func(rows []BenchEntry) []BenchEntry {
			rows[1].Error = "boom"
			delete(rows[1].Counters, "pso.weight_draws")
			return rows
		}, []string{`E10: error "" -> "boom"`, "E10: pso.weight_draws 4612500 -> 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGate(t, tc.edit, tc.want...) })
	}
}

// TestMissingFromNew: every baseline row is required, so a row the new
// run dropped fails by name, and only that row does.
func TestMissingFromNew(t *testing.T) {
	checkGate(t, func(rows []BenchEntry) []BenchEntry {
		return append(rows[:1], rows[2:]...)
	}, "E10: baseline row missing")
}

// TestConvergeRowsGateOnQueries: BENCH.converge rows are ordinary rows.
// Their converge.queries counter must equal the baseline's whichever way
// it moves, their seconds never count, and a row that lost the counter
// fails.
func TestConvergeRowsGateOnQueries(t *testing.T) {
	converge := func(edit func(e *BenchEntry)) func(rows []BenchEntry) []BenchEntry {
		return func(rows []BenchEntry) []BenchEntry {
			edit(&rows[3])
			return rows
		}
	}
	checkGate(t, converge(func(e *BenchEntry) { e.Counters["converge.queries"] = 48 }),
		"BENCH.converge.q90: converge.queries 32 -> 48")
	checkGate(t, converge(func(e *BenchEntry) { e.Counters["converge.queries"] = 16 }),
		"BENCH.converge.q90: converge.queries 32 -> 16")
	checkGate(t, converge(func(e *BenchEntry) { e.Seconds *= 250 }))
	checkGate(t, converge(func(e *BenchEntry) { e.Counters = nil }),
		"BENCH.converge.q90: converge.queries 32 -> 0")
}

func TestReadBenchFileRoundTrip(t *testing.T) {
	base, _ := benchPair()
	dir := t.TempDir()
	path, err := base.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != base.Rev || len(got.Experiments) != len(base.Experiments) {
		t.Errorf("round trip mangled summary: %+v", got)
	}
	if got.Experiments[0].Counters["query.count"] != 1000 {
		t.Errorf("counters lost: %+v", got.Experiments[0])
	}
	if _, err := ReadBenchFile(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file must error")
	}
}
