package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/synth"
)

// quickCounters holds the work counters of every quick run at seed 1.
const quickCounters = "testdata/quick_counters.json"

// counterRow is one row of quickCounters: a run's id and the work
// counters it recorded, if any.
type counterRow struct {
	ID       string           `json:"id"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// e02Remote is the E02.remote row: the E02 sweep over an in-process exact
// oracle at n = 64, on E02.stream's dataset: the sweep `reconstruct
// -remote` runs over the wire.
func e02Remote() Runner {
	return Runner{ID: "E02.remote", Run: func(ctx context.Context, seed int64, quick bool) (*Table, error) {
		x := synth.BinaryDataset(par.RNG(seed, 1), 64, 0.5)
		return E02OverOracle(ctx, &query.Exact{X: x}, x, seed, quick)
	}}
}

// TestAllRunnersProduceTables runs every registered experiment in quick
// mode at seed 1, then E02.remote, one at a time through RunInstrumented.
// Each must produce a well-formed table, and the work counters each one
// records must equal its row of testdata/quick_counters.json: the same
// rows, counter names and values. This is the regression gate on the
// work the attacks do (pivots, propagations, oracle queries, weight
// draws). At one seed those counters do not depend on timing or worker
// count (docs/INVARIANTS.md), so a moved counter is a change in the work
// the code does. A change that moves one on purpose replaces the file
// with the JSON the failing test prints, and says why in CHANGES.md.
func TestAllRunnersProduceTables(t *testing.T) {
	data, err := os.ReadFile(quickCounters)
	if err != nil {
		t.Fatal(err)
	}
	var rows []counterRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("%s: %v", quickCounters, err)
	}
	runners := append(All(), e02Remote())

	var observed []counterRow
	for _, r := range runners {
		t.Run(r.ID, func(t *testing.T) {
			tab, delta, err := r.RunInstrumented(context.Background(), 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != r.ID {
				t.Errorf("table id %q != runner id %q", tab.ID, r.ID)
			}
			if len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("empty table: %+v", tab)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row %d width %d != header width %d", i, len(row), len(tab.Header))
				}
			}
			if tab.String() == "" {
				t.Error("empty rendering")
			}
			observed = append(observed, counterRow{r.ID, delta.Counters})
		})
	}

	var ids []string
	for _, r := range runners {
		ids = append(ids, r.ID)
	}
	diffs := gateDiffs(rows, ids, observed)
	if len(diffs) == 0 {
		return
	}
	msg := fmt.Sprintf("work counters differ from %s (row: counter file -> run):\n  %s",
		quickCounters, strings.Join(diffs, "\n  "))
	if len(observed) == len(runners) {
		js, err := json.MarshalIndent(observed, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		msg += "\nIf the change means to move them, replace the file with this run's counters and say why in CHANGES.md:\n" + string(js)
	}
	t.Error(msg)
}

// gateDiffs applies the gate's rule to the file's rows, the ids of every
// run and the counters of the runs that ran (a -run filter may skip
// some): one line per breach, naming its row and counter.
func gateDiffs(rows []counterRow, ids []string, observed []counterRow) []string {
	var diffs []string
	want := map[string]map[string]int64{}
	for _, row := range rows {
		if _, dup := want[row.ID]; dup {
			diffs = append(diffs, row.ID+": duplicate row")
		}
		want[row.ID] = row.Counters
	}
	known := map[string]bool{}
	for _, id := range ids {
		known[id] = true
	}
	for _, row := range rows {
		if !known[row.ID] {
			diffs = append(diffs, row.ID+": row names no experiment")
		}
	}
	for _, got := range observed {
		w, ok := want[got.ID]
		if !ok {
			diffs = append(diffs, got.ID+": no row in the file")
			continue
		}
		diffs = append(diffs, counterDiffs(got.ID, w, got.Counters)...)
	}
	return diffs
}

// TestCounterGate pins the gate's rule on a small file: the runs must
// record exactly the file's rows, counter names and values, and each
// edit of the file below fails by row and counter.
func TestCounterGate(t *testing.T) {
	file := func() []counterRow {
		return []counterRow{
			{"E02", map[string]int64{"lp.pivots": 3921, "query.count": 4608}},
			{"E03", nil},
		}
	}
	ids := []string{"E02", "E03"}
	for _, tc := range []struct {
		name string
		edit func(rows []counterRow) []counterRow
		want []string
	}{
		{"same counters", func(rows []counterRow) []counterRow { return rows }, nil},
		{"moved counter", func(rows []counterRow) []counterRow {
			rows[0].Counters["lp.pivots"] = 3922
			return rows
		}, []string{"E02: lp.pivots 3922 -> 3921"}},
		{"counter in the file only", func(rows []counterRow) []counterRow {
			rows[0].Counters["lp.refactorizations"] = 0
			return rows
		}, []string{"E02: lp.refactorizations 0 -> none"}},
		{"counter in the run only", func(rows []counterRow) []counterRow {
			delete(rows[0].Counters, "query.count")
			return rows
		}, []string{"E02: query.count none -> 4608"}},
		{"deleted row", func(rows []counterRow) []counterRow {
			return rows[:1]
		}, []string{"E03: no row in the file"}},
		{"row naming no experiment", func(rows []counterRow) []counterRow {
			return append(rows, counterRow{ID: "E20"})
		}, []string{"E20: row names no experiment"}},
		{"duplicate row", func(rows []counterRow) []counterRow {
			return append(rows, counterRow{ID: "E03"})
		}, []string{"E03: duplicate row"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := gateDiffs(tc.edit(file()), ids, file())
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("diffs = %q, want %q", got, tc.want)
			}
		})
	}
}

// counterDiffs lists, by name, each counter on which want and got differ,
// as "id: name want -> got". A counter one side lacks reads "none" there,
// so a counter the file names at 0 still differs from an absent one.
func counterDiffs(id string, want, got map[string]int64) []string {
	var names []string
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	show := func(v int64, ok bool) string {
		if !ok {
			return "none"
		}
		return strconv.FormatInt(v, 10)
	}
	var out []string
	for _, name := range names {
		w, inWant := want[name]
		g, inGot := got[name]
		if inWant != inGot || w != g {
			out = append(out, fmt.Sprintf("%s: %s %s -> %s", id, name, show(w, inWant), show(g, inGot)))
		}
	}
	return out
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E08"); !ok {
		t.Error("E08 should exist")
	}
	if _, ok := ByID("e08"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 should not exist")
	}
}

// TestE02CrossoverShape verifies the fundamental-law shape: reconstruction
// succeeds at small noise and fails at noise Θ(n).
func TestE02CrossoverShape(t *testing.T) {
	tab, err := E02LPReconstruction(context.Background(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	// First row per n is c=0 (exact): must be "yes"; last row is alpha≈n/3:
	// must be "no".
	sawYes, sawNo := false, false
	for _, row := range tab.Rows {
		switch row[3] {
		case "yes":
			sawYes = true
		case "no":
			sawNo = true
		}
	}
	if !sawYes || !sawNo {
		t.Errorf("E02 should show both regimes:\n%s", tab)
	}
	if row := tab.Rows[0]; row[3] != "yes" {
		t.Errorf("exact answers must reconstruct: %v", row)
	}
}

// TestE09CrossoverShape verifies the DP defense: small epsilon prevents
// PSO, exact counts do not.
func TestE09CrossoverShape(t *testing.T) {
	tab, err := E09DPPSOSecurity(context.Background(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0]              // eps = 0.05
	last := tab.Rows[len(tab.Rows)-1] // exact
	if first[3] != "yes" {
		t.Errorf("eps=0.05 should prevent PSO: %v", first)
	}
	if last[3] != "no" {
		t.Errorf("exact counts should fail: %v", last)
	}
}

// TestE16Contradiction verifies the paper's §2.4.3 punchline appears in
// the measured table: the WP verdict for k-anonymity is contradicted and
// the DP verdict is consistent.
func TestE16Contradiction(t *testing.T) {
	tab, err := E16LegalVerdictTable(context.Background(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	var sawKAnonContradiction, sawDPConsistent bool
	for _, row := range tab.Rows {
		if row[0] == "k-anonymity" && row[3] == "no" {
			sawKAnonContradiction = true
		}
		if row[0] == "differential privacy" && row[3] == "yes" {
			sawDPConsistent = true
		}
	}
	if !sawKAnonContradiction {
		t.Errorf("k-anonymity row should contradict the WP:\n%s", tab)
	}
	if !sawDPConsistent {
		t.Errorf("differential privacy row should be consistent:\n%s", tab)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"a note"},
	}
	out := tab.String()
	for _, want := range []string{"X — demo", "long-header", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestE19DefenseShape verifies the historical arc: swapping leaves every
// block solvable while DP noise makes most unsolvable.
func TestE19DefenseShape(t *testing.T) {
	tab, err := E19CensusDefenses(context.Background(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	var rawSolved, swapSolved, dpSolved string
	for _, row := range tab.Rows {
		switch {
		case row[0] == "none (raw tables)":
			rawSolved = row[1]
		case strings.HasPrefix(row[0], "swapping 30"):
			swapSolved = row[1]
		case strings.HasPrefix(row[0], "ε=0.5"):
			dpSolved = row[1]
		}
	}
	if rawSolved == "" || swapSolved == "" || dpSolved == "" {
		t.Fatalf("missing rows:\n%s", tab)
	}
	if rawSolved != swapSolved {
		t.Errorf("swapping should leave solvability intact: raw %s vs swap %s", rawSolved, swapSolved)
	}
	var solved, blocks int
	if _, err := fmt.Sscanf(dpSolved, "%d/%d", &solved, &blocks); err != nil {
		t.Fatal(err)
	}
	if solved*4 > blocks {
		t.Errorf("DP tables should be mostly unsolvable: %s", dpSolved)
	}
	// Confirmed re-identification per resident: no DP row may expose
	// more of the population than the raw tables do.
	perResident := func(row []string) float64 {
		var v float64
		if _, err := fmt.Sscanf(row[3], "%f%%", &v); err != nil {
			t.Fatalf("row %q: per-resident rate %q: %v", row[0], row[3], err)
		}
		return v
	}
	var raw float64
	for _, row := range tab.Rows {
		if row[0] == "none (raw tables)" {
			raw = perResident(row)
		}
	}
	if raw <= 0 {
		t.Errorf("raw tables re-identify nobody:\n%s", tab)
	}
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "DP") && perResident(row) > raw {
			t.Errorf("%s re-identifies %.1f%% of residents, raw tables %.1f%%", row[0], perResident(row), raw)
		}
	}
}

// TestTableWideRowRendering is a regression test for rows carrying more
// cells than the header: those cells used to render at width 0, collapsing
// the column alignment.
func TestTableWideRowRendering(t *testing.T) {
	tab := &Table{
		ID:     "X",
		Title:  "wide rows",
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "2", "wide-extra-cell", "tail")
	tab.AddRow("3", "4", "x", "yy")
	out := tab.String()
	if !strings.Contains(out, "wide-extra-cell") {
		t.Fatalf("extra cell missing:\n%s", out)
	}
	// The short extra cell must be padded to its column width so the row
	// tails align.
	lines := strings.Split(out, "\n")
	var tailCols []int
	for _, l := range lines {
		if i := strings.Index(l, "tail"); i >= 0 {
			tailCols = append(tailCols, i)
		}
		if i := strings.Index(l, "yy"); i >= 0 {
			tailCols = append(tailCols, i)
		}
	}
	if len(tailCols) != 2 || tailCols[0] != tailCols[1] {
		t.Errorf("row tails misaligned (columns %v):\n%s", tailCols, out)
	}
}

// TestRunInstrumented checks that metrics recorded while an experiment
// runs land in the table footer, and that oracle query counts are nonzero
// for an oracle-driven attack.
func TestRunInstrumented(t *testing.T) {
	r, ok := ByID("E01")
	if !ok {
		t.Fatal("E01 not registered")
	}
	tab, delta, err := r.RunInstrumented(context.Background(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Counters["query.count"] == 0 {
		t.Errorf("expected nonzero oracle query count, got delta %+v", delta)
	}
	if tab.Metrics.Empty() {
		t.Error("table metrics footer should be populated")
	}
	if out := tab.String(); !strings.Contains(out, "metrics:") || !strings.Contains(out, "query.count") {
		t.Errorf("rendered table missing metrics footer:\n%s", out)
	}
}
