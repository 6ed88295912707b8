package par_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/par"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		n := 100
		counts := make([]atomic.Int64, n)
		if err := par.ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachResultsIndependentOfWorkerCount(t *testing.T) {
	// Each item draws from its own (seed, index) source; the assembled
	// output must be identical at every worker count.
	run := func(workers int) []float64 {
		out := make([]float64, 64)
		if err := par.ForEach(workers, len(out), func(i int) error {
			rng := par.RNG(42, i)
			out[i] = rng.Float64() + rng.Float64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8, 0} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachReturnsLowestFailingIndexError(t *testing.T) {
	// Indices 23 and 61 deterministically fail; the reported error must be
	// index 23's at every worker count, and every index below 23 must have
	// run.
	for _, workers := range []int{1, 2, 8} {
		var ran [64]atomic.Bool
		err := par.ForEach(workers, 64, func(i int) error {
			ran[i].Store(true)
			if i == 23 || i == 61 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 23 failed" {
			t.Fatalf("workers=%d: err = %v, want item 23's error", workers, err)
		}
		for i := 0; i <= 23; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: index %d below the failing index never ran", workers, i)
			}
		}
	}
}

func TestForEachCancelsPromptly(t *testing.T) {
	// After the first failure no further items are started: with the
	// failing item among the first dispensed, the number of executed items
	// stays near the worker count, not near n.
	const n = 10000
	var executed atomic.Int64
	err := par.ForEach(4, n, func(i int) error {
		executed.Add(1)
		if i == 0 {
			return errors.New("doomed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := executed.Load(); got > n/10 {
		t.Errorf("executed %d of %d items after first-item failure; cancellation not prompt", got, n)
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	if err := par.ForEach(4, 0, func(int) error { called = true; return nil }); err != nil || called {
		t.Errorf("n=0: err=%v called=%v", err, called)
	}
	if err := par.ForEach(4, -3, func(int) error { called = true; return nil }); err != nil || called {
		t.Errorf("n<0: err=%v called=%v", err, called)
	}
}

func TestWorkers(t *testing.T) {
	if got := par.Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := par.Workers(8, 3); got != 3 {
		t.Errorf("Workers(8, 3) = %d, want 3", got)
	}
	if got := par.Workers(2, 100); got != 2 {
		t.Errorf("Workers(2, 100) = %d, want 2", got)
	}
}

func TestSeedForDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := par.SeedFor(7, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SeedFor(7, %d) == SeedFor(7, %d)", i, prev)
		}
		seen[s] = i
	}
}

// TestConcurrentJournalEmit drives obs.Journal.Emit from pool workers —
// the cmd/repro -metrics pattern — and checks the journal stays a valid
// one-event-per-line JSONL stream under -race.
func TestConcurrentJournalEmit(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	const n = 200
	if err := par.ForEach(8, n, func(i int) error {
		return j.Emit(obs.Event{Phase: "experiment", ID: fmt.Sprintf("item-%d", i), Seed: int64(i)})
	}); err != nil {
		t.Fatal(err)
	}
	if j.Events() != n {
		t.Fatalf("journal recorded %d events, want %d", j.Events(), n)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("journal stream corrupted by concurrent emits: %v", err)
	}
	if len(events) != n {
		t.Fatalf("parsed %d events, want %d", len(events), n)
	}
}

// TestForEachObsIntegration checks the pool's own work accounting.
func TestForEachObsIntegration(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	before := reg.Snapshot()
	if err := par.ForEach(2, 50, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	delta := reg.Snapshot().Delta(before)
	if got := delta.Counters["par.items"]; got != 50 {
		t.Errorf("par.items delta = %d, want 50", got)
	}
	if got := delta.Histograms["par.item_ns"].Count; got != 50 {
		t.Errorf("par.item_ns count delta = %d, want 50", got)
	}
}

// TestForEachTraceWorkerLanes pins the -spans contract: with the default
// tracer enabled, a pooled ForEach exports one parent span on the main
// lane, one named timeline lane per pool worker, and one child event per
// item whose parent arg is the ForEach span's id.
func TestForEachTraceWorkerLanes(t *testing.T) {
	tr := obs.DefaultTracer()
	tr.Reset()
	tr.SetEnabled(true)
	defer func() {
		tr.SetEnabled(false)
		tr.Reset()
	}()

	const workers, n = 4, 32
	if err := par.ForEach(workers, n, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.SetEnabled(false)

	workerLanes := map[int]string{}
	for tid, name := range tr.Dump("").Lanes {
		if tid != obs.MainLane {
			workerLanes[tid] = name
		}
	}
	if len(workerLanes) != workers {
		t.Fatalf("worker lanes = %v, want %d lanes", workerLanes, workers)
	}

	var pool *obs.TraceEvent
	items := 0
	for _, e := range tr.Events() {
		e := e
		switch e.Cat {
		case "par":
			if pool != nil {
				t.Fatal("more than one pool span recorded")
			}
			if e.TID != obs.MainLane {
				t.Errorf("pool span on lane %d, want main lane", e.TID)
			}
			pool = &e
		case "par.item":
			items++
			if _, ok := workerLanes[e.TID]; !ok {
				t.Errorf("item %q on unknown lane %d", e.Name, e.TID)
			}
		}
	}
	if pool == nil {
		t.Fatal("no par.ForEach parent span recorded")
	}
	if items != n {
		t.Errorf("item events = %d, want %d", items, n)
	}
	poolID := pool.Args["id"]
	for _, e := range tr.Events() {
		if e.Cat == "par.item" && e.Args["parent"] != poolID {
			t.Errorf("item %q parent = %v, want pool id %v", e.Name, e.Args["parent"], poolID)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) ||
		!bytes.Contains(buf.Bytes(), []byte(`"thread_name"`)) {
		t.Error("Chrome trace export missing traceEvents/thread_name metadata")
	}
}
