package experiments

import (
	"context"
	"maps"
	"strings"
	"testing"

	"singlingout/internal/obs"
)

func TestSetWorkersClamp(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(5)
	if Workers() != 5 {
		t.Errorf("Workers() = %d, want 5", Workers())
	}
	SetWorkers(-3)
	if Workers() != 0 {
		t.Errorf("Workers() = %d after negative set, want 0", Workers())
	}
}

// TestWorkerCountInvariance is the determinism contract test for the
// parallel harnesses: the same seed must render byte-identical tables and
// record identical work counters at -workers 1 and -workers 8 (make
// benchgate compares quick-run counters with a committed baseline and
// relies on the latter). Every harness that fans out over internal/par is
// covered (E01, E02, E13 grid points; E11 and E19 census blocks, E19 with
// seeded DP table noise).
func TestWorkerCountInvariance(t *testing.T) {
	defer SetWorkers(0)
	const seed = 7
	runners := []Runner{}
	for _, id := range []string{"E01", "E02", "E11", "E13", "E19"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		runners = append(runners, r)
	}
	type run struct {
		table    string
		counters map[string]int64
	}
	render := func(workers int) map[string]run {
		t.Helper()
		SetWorkers(workers)
		out := map[string]run{}
		for _, r := range runners {
			tab, delta, err := r.RunInstrumented(context.Background(), seed, true)
			if err != nil {
				t.Fatalf("%s at workers=%d: %v", r.ID, workers, err)
			}
			tab.Metrics = obs.Snapshot{} // the footer carries timing histograms
			var b strings.Builder
			if err := tab.Fprint(&b); err != nil {
				t.Fatal(err)
			}
			out[r.ID] = run{b.String(), delta.Counters}
		}
		return out
	}
	seq := render(1)
	par := render(8)
	for id, want := range seq {
		got := par[id]
		if got.table != want.table {
			t.Errorf("%s: table at workers=8 differs from workers=1\n--- workers=1 ---\n%s--- workers=8 ---\n%s", id, want.table, got.table)
		}
		if len(want.counters) == 0 {
			t.Errorf("%s: no work counters recorded", id)
		}
		if !maps.Equal(got.counters, want.counters) {
			t.Errorf("%s: work counters at workers=8 differ from workers=1\n workers=1: %v\n workers=8: %v", id, want.counters, got.counters)
		}
	}
}
