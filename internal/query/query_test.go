package query

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"singlingout/internal/synth"
)

var ctx = context.Background()

func TestExactOracle(t *testing.T) {
	x := []int64{1, 0, 1, 1, 0}
	o := &Exact{X: x}
	if o.N() != 5 {
		t.Fatalf("N = %d", o.N())
	}
	got, err := AnswerOne(ctx, o, []int{0, 2, 3})
	if err != nil || got != 3 {
		t.Errorf("AnswerOne = %v, %v", got, err)
	}
	got, err = AnswerOne(ctx, o, nil)
	if err != nil || got != 0 {
		t.Errorf("empty query = %v, %v", got, err)
	}
	if _, err := AnswerOne(ctx, o, []int{5}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("out-of-range index: want ErrInvalidQuery, got %v", err)
	}
	if _, err := AnswerOne(ctx, o, []int{-1}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("negative index: want ErrInvalidQuery, got %v", err)
	}
}

func TestExactOracleBatch(t *testing.T) {
	o := &Exact{X: []int64{1, 0, 1, 1, 0}}
	got, err := o.Answer(ctx, [][]int{{0}, {0, 2, 3}, nil})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answers[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// A batch fails as a unit: one bad query, no answers.
	if _, err := o.Answer(ctx, [][]int{{0}, {9}}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("bad batch: want ErrInvalidQuery, got %v", err)
	}
}

func TestAnswerHonorsContext(t *testing.T) {
	o := &Exact{X: []int64{1, 0, 1}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.Answer(cancelled, [][]int{{0}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: got %v", err)
	}
}

func TestBoundedNoiseWithinAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := synth.BinaryDataset(rng, 100, 0.5)
	o := &BoundedNoise{X: x, Alpha: 3, Rng: rng}
	exact := &Exact{X: x}
	for trial := 0; trial < 500; trial++ {
		q := RandomSubsets(rng, 100, 1)[0]
		noisy, err := AnswerOne(ctx, o, q)
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := AnswerOne(ctx, exact, q)
		if math.Abs(noisy-truth) > 3 {
			t.Fatalf("noise exceeded alpha: %v vs %v", noisy, truth)
		}
	}
}

func TestLaplaceOracleNoiseScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := synth.BinaryDataset(rng, 50, 0.5)
	o := &Laplace{X: x, Eps: 0.5, Rng: rng}
	exact := &Exact{X: x}
	q := RandomSubsets(rng, 50, 1)[0]
	truth, _ := AnswerOne(ctx, exact, q)
	var sumAbs float64
	const trials = 50000
	for i := 0; i < trials; i++ {
		a, err := AnswerOne(ctx, o, q)
		if err != nil {
			t.Fatal(err)
		}
		sumAbs += math.Abs(a - truth)
	}
	// E|Lap(1/eps)| = 1/eps = 2.
	if got := sumAbs / trials; math.Abs(got-2) > 0.1 {
		t.Errorf("mean |noise| = %v, want ~2", got)
	}
}

func TestStickyLaplace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := synth.BinaryDataset(rng, 60, 0.5)
	o := &StickyLaplace{X: x, Eps: 0.5, Seed: 7}
	q := []int{0, 3, 7, 9, 12, 20}
	first, err := AnswerOne(ctx, o, q)
	if err != nil {
		t.Fatal(err)
	}
	// Sticky: the same query set always gets the same answer, in any
	// index order.
	for i := 0; i < 5; i++ {
		if a, _ := AnswerOne(ctx, o, q); a != first {
			t.Fatalf("sticky noise broken: %v != %v", a, first)
		}
	}
	if a, _ := AnswerOne(ctx, o, []int{20, 12, 9, 7, 3, 0}); a != first {
		t.Error("sticky noise should be order-independent in the query set")
	}
	// A different query set (almost surely) gets different noise.
	if a, _ := AnswerOne(ctx, o, []int{0, 3, 7, 9, 12, 21}); a == first {
		t.Error("distinct queries returned identical answers (suspicious)")
	}
	// Different seeds decorrelate answers to the same query.
	o2 := &StickyLaplace{X: x, Eps: 0.5, Seed: 8}
	if a, _ := AnswerOne(ctx, o2, q); a == first {
		t.Error("different seeds returned identical noise")
	}
	// The noise has the advertised Laplace scale across many distinct
	// queries: E|Lap(1/eps)| = 2.
	exact := &Exact{X: x}
	qs := RandomSubsets(rng, 60, 4000)
	noisy, err := o.Answer(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	truths, _ := exact.Answer(ctx, qs)
	var sumAbs float64
	for i := range qs {
		sumAbs += math.Abs(noisy[i] - truths[i])
	}
	if got := sumAbs / float64(len(qs)); math.Abs(got-2) > 0.25 {
		t.Errorf("mean |sticky noise| = %v, want ~2", got)
	}
}

func TestRandomSubsetsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	qs := RandomSubsets(rng, 200, 50)
	if len(qs) != 50 {
		t.Fatalf("m = %d", len(qs))
	}
	total := 0
	for _, q := range qs {
		for i := 1; i < len(q); i++ {
			if q[i] <= q[i-1] {
				t.Fatal("subset indices must be strictly increasing")
			}
		}
		total += len(q)
	}
	mean := float64(total) / 50
	if math.Abs(mean-100) > 10 {
		t.Errorf("mean subset size = %v, want ~100", mean)
	}
}

// TestDuplicateIndexRejected is the regression test for the duplicate-index
// disagreement: trueSum used to count a repeated index twice while the
// attacks' candidate evaluations collapsed it to one, so the attacker and
// oracle disagreed on what the query meant. Duplicates are now rejected in
// ValidateQuery — the one documented place query well-formedness lives —
// so every built-in oracle fails the query instead of answering it.
func TestDuplicateIndexRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := []int64{1, 0, 1, 1, 0}
	dup := []int{0, 2, 0}
	for _, o := range []Oracle{
		&Exact{X: x},
		&BoundedNoise{X: x, Alpha: 1, Rng: rng},
		&Laplace{X: x, Eps: 1, Rng: rng},
		&StickyLaplace{X: x, Eps: 1, Seed: 1},
	} {
		if _, err := AnswerOne(ctx, o, dup); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%T: duplicate-index query should fail with ErrInvalidQuery, got %v", o, err)
		}
		// The same oracle still answers the deduplicated query.
		if _, err := AnswerOne(ctx, o, []int{0, 2}); err != nil {
			t.Errorf("%T: valid query failed: %v", o, err)
		}
	}
}

func TestValidateQuery(t *testing.T) {
	if err := ValidateQuery(5, []int{0, 4, 2}); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := ValidateQuery(5, nil); err != nil {
		t.Errorf("empty query rejected: %v", err)
	}
	for _, bad := range [][]int{{5}, {-1}, {0, 0}, {1, 2, 3, 1}} {
		if err := ValidateQuery(5, bad); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("ValidateQuery(5, %v) should fail with ErrInvalidQuery, got %v", bad, err)
		}
	}
	// Exercise the large-query bitmap path (len > smallQuery).
	big := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		big = append(big, i)
	}
	if err := ValidateQuery(25, big); err != nil {
		t.Errorf("valid large query rejected: %v", err)
	}
	big[19] = 3 // duplicate
	if err := ValidateQuery(25, big); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("large duplicate query should fail with ErrInvalidQuery, got %v", err)
	}
}
