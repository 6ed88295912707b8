package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"singlingout/internal/obs"
)

// refuseZero answers exactly but refuses, with ErrBudgetExhausted, every
// batch holding a query that contains index 0: a stateless stand-in for a
// query service whose budget has run out for part of the workload.
type refuseZero struct{ Exact }

func (r *refuseZero) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	for _, q := range queries {
		if slices.Contains(q, 0) {
			return nil, fmt.Errorf("query %v refused: %w", q, ErrBudgetExhausted)
		}
	}
	return r.Exact.Answer(ctx, queries)
}

// TestBudgetExhaustedMidAttack drives an oracle that refuses part of the
// workload the way a single-query attack workload would and checks both
// the error identity and the instrumented accounting of the denials.
func TestBudgetExhaustedMidAttack(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	x := []int64{1, 0, 1, 1, 0, 1}
	in := Instrument(&refuseZero{Exact{X: x}}, reg)

	qs := RandomSubsets(rand.New(rand.NewSource(7)), len(x), 10)
	answered, denied, refusable := 0, 0, 0
	for _, q := range qs {
		if slices.Contains(q, 0) {
			refusable++
		}
		_, err := answerOne(ctx, in, q)
		switch {
		case err == nil:
			answered++
		case errors.Is(err, ErrBudgetExhausted):
			denied++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if refusable == 0 || refusable == len(qs) {
		t.Fatalf("workload has %d of %d queries with index 0; want some of each", refusable, len(qs))
	}
	if denied != refusable || answered != len(qs)-refusable {
		t.Fatalf("answered %d denied %d, want %d/%d", answered, denied, len(qs)-refusable, refusable)
	}
	s := reg.Snapshot()
	if s.Counters[MetricQueries] != 10 {
		t.Errorf("%s = %d, want 10 (denied queries still count as issued)", MetricQueries, s.Counters[MetricQueries])
	}
	if s.Counters[MetricBudgetDenied] != int64(denied) {
		t.Errorf("%s = %d, want %d", MetricBudgetDenied, s.Counters[MetricBudgetDenied], denied)
	}
	if s.Counters[MetricErrors] != int64(denied) {
		t.Errorf("%s = %d, want %d", MetricErrors, s.Counters[MetricErrors], denied)
	}
}

// TestInstrumentedBatchAccounting checks that a batch of k queries counts
// as k issued queries, one latency observation, and one error on failure.
func TestInstrumentedBatchAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	in := Instrument(&Exact{X: []int64{1, 0, 1}}, reg)
	if _, err := in.Answer(ctx, [][]int{{0}, {1, 2}, {0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Answer(ctx, [][]int{{0}, {9}}); err == nil {
		t.Fatal("bad batch should fail")
	}
	s := reg.Snapshot()
	if s.Counters[MetricQueries] != 5 {
		t.Errorf("%s = %d, want 5", MetricQueries, s.Counters[MetricQueries])
	}
	if s.Counters[MetricErrors] != 1 {
		t.Errorf("%s = %d, want 1 (errors count batches)", MetricErrors, s.Counters[MetricErrors])
	}
	if h := s.Histograms[MetricLatency]; h.Count != 2 {
		t.Errorf("latency count = %d, want 2 (one per batch)", h.Count)
	}
	if h := s.Histograms[MetricSubsetSize]; h.Count != 5 || h.Sum != 1+2+3+1+1 {
		t.Errorf("subset-size count/sum = %d/%d, want 5/8", h.Count, h.Sum)
	}
}

// TestAnswerOutOfRange checks every oracle type rejects out-of-range
// indices instead of panicking or answering garbage.
func TestAnswerOutOfRange(t *testing.T) {
	x := []int64{1, 0, 1}
	rng := rand.New(rand.NewSource(1))
	oracles := map[string]Oracle{
		"exact":   &Exact{X: x},
		"bounded": &BoundedNoise{X: x, Alpha: 1, Rng: rng},
		"laplace": &Laplace{X: x, Eps: 1, Rng: rng},
		"sticky":  &StickyLaplace{X: x, Eps: 1, Seed: 3},
		"instrumented": Instrument(&Exact{X: x},
			func() *obs.Registry { r := obs.NewRegistry(); r.SetEnabled(true); return r }()),
	}
	for name, o := range oracles {
		for _, q := range [][]int{{0, 3}, {-1}, {0, 1, 2, 99}} {
			if _, err := answerOne(ctx, o, q); err == nil {
				t.Errorf("%s: answerOne(%v) should fail", name, q)
			}
		}
		// A valid query must still work afterwards.
		if got, err := answerOne(ctx, o, []int{0, 2}); err != nil {
			t.Errorf("%s: valid query failed: %v", name, err)
		} else if got < 2-1.5 || got > 2+3 { // exact answer 2, generous noise margin
			t.Errorf("%s: answerOne([0 2]) = %v, implausibly far from 2", name, got)
		}
	}
}

// TestInstrumentedErrorCounting checks that failed batches land in the
// error counter, not just the query counter.
func TestInstrumentedErrorCounting(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	in := Instrument(&Exact{X: []int64{1, 1}}, reg)
	if _, err := answerOne(ctx, in, []int{5}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := answerOne(ctx, in, []int{0}); err != nil {
		t.Fatalf("valid query failed: %v", err)
	}
	s := reg.Snapshot()
	if s.Counters[MetricQueries] != 2 || s.Counters[MetricErrors] != 1 {
		t.Errorf("queries %d errors %d, want 2/1", s.Counters[MetricQueries], s.Counters[MetricErrors])
	}
	if s.Counters[MetricBudgetDenied] != 0 {
		t.Errorf("out-of-range errors must not count as budget denials")
	}
}

// TestInstrumentNoDoubleWrap checks wrapping an already-instrumented
// oracle does not double count.
func TestInstrumentNoDoubleWrap(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	in := Instrument(&Exact{X: []int64{1}}, reg)
	if again := Instrument(in, reg); again != in {
		t.Fatal("Instrument should return an already-instrumented oracle unchanged")
	}
}

// TestInstrumentedConcurrent hammers one instrumented oracle, which
// refuses part of the workload, from many goroutines; run under -race
// this checks the atomic metric accounting, and the totals must still
// balance.
func TestInstrumentedConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	const (
		workers = 8
		perW    = 500
	)
	x := make([]int64, 32)
	for i := range x {
		x[i] = int64(i % 2)
	}
	in := Instrument(&refuseZero{Exact{X: x}}, reg)

	var wg sync.WaitGroup
	denials := make([]int, workers)
	refusable := make([]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				q := RandomSubsets(rng, len(x), 1)[0]
				if slices.Contains(q, 0) {
					refusable[w]++
				}
				if _, err := answerOne(context.Background(), in, q); errors.Is(err, ErrBudgetExhausted) {
					denials[w]++
				} else if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	totalDenied, wantDenied := 0, 0
	for w := range denials {
		totalDenied += denials[w]
		wantDenied += refusable[w]
	}
	total := workers * perW
	if wantDenied == 0 || totalDenied != wantDenied {
		t.Errorf("denials %d, want %d (> 0)", totalDenied, wantDenied)
	}
	s := reg.Snapshot()
	if s.Counters[MetricQueries] != int64(total) {
		t.Errorf("%s = %d, want %d", MetricQueries, s.Counters[MetricQueries], total)
	}
	if s.Counters[MetricBudgetDenied] != int64(totalDenied) {
		t.Errorf("%s = %d, want %d", MetricBudgetDenied, s.Counters[MetricBudgetDenied], totalDenied)
	}
	if h := s.Histograms[MetricLatency]; h.Count != int64(total) {
		t.Errorf("latency count %d, want %d", h.Count, total)
	}
	if h := s.Histograms[MetricSubsetSize]; h.Count != int64(total) {
		t.Errorf("subset-size count %d, want %d", h.Count, total)
	}
}
