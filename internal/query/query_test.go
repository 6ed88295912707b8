package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"singlingout/internal/dist"
	"singlingout/internal/synth"
)

var ctx = context.Background()

// answerOne asks o the one query q, as a one-query batch.
func answerOne(ctx context.Context, o Oracle, q []int) (float64, error) {
	a, err := o.Answer(ctx, [][]int{q})
	if err != nil {
		return 0, err
	}
	return a[0], nil
}

func TestExactOracle(t *testing.T) {
	x := []int64{1, 0, 1, 1, 0}
	o := &Exact{X: x}
	if o.N() != 5 {
		t.Fatalf("N = %d", o.N())
	}
	got, err := answerOne(ctx, o, []int{0, 2, 3})
	if err != nil || got != 3 {
		t.Errorf("answerOne = %v, %v", got, err)
	}
	got, err = answerOne(ctx, o, nil)
	if err != nil || got != 0 {
		t.Errorf("empty query = %v, %v", got, err)
	}
	if _, err := answerOne(ctx, o, []int{5}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("out-of-range index: want ErrInvalidQuery, got %v", err)
	}
	if _, err := answerOne(ctx, o, []int{-1}); !errors.Is(err, ErrInvalidQuery) {
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
		noisy, err := answerOne(ctx, o, q)
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := answerOne(ctx, exact, q)
		if math.Abs(noisy-truth) > 3 {
			t.Fatalf("noise exceeded alpha: %v vs %v", noisy, truth)
		}
	}
}

// Laplace is a test oracle that answers with the true sum plus fresh
// Laplace(1/Eps) noise drawn from Rng on every call. The product's
// Laplace oracle is the sticky one, StickyLaplace.
type Laplace struct {
	X   []int64
	Eps float64
	Rng *rand.Rand
}

// Answer implements Oracle with fresh Laplace noise per query.
func (l *Laplace) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	return answerEach(ctx, queries, func(q []int) (float64, error) {
		s, err := trueSum(l.X, q)
		if err != nil {
			return 0, err
		}
		return float64(s) + dist.Laplace(l.Rng, 1/l.Eps), nil
	})
}

// N implements Oracle.
func (l *Laplace) N() int { return len(l.X) }

func TestLaplaceOracleNoiseScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := synth.BinaryDataset(rng, 50, 0.5)
	o := &Laplace{X: x, Eps: 0.5, Rng: rng}
	exact := &Exact{X: x}
	q := RandomSubsets(rng, 50, 1)[0]
	truth, _ := answerOne(ctx, exact, q)
	var sumAbs float64
	const trials = 50000
	for i := 0; i < trials; i++ {
		a, err := answerOne(ctx, o, q)
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
	first, err := answerOne(ctx, o, q)
	if err != nil {
		t.Fatal(err)
	}
	// Sticky: the same query set always gets the same answer, in any
	// index order.
	for i := 0; i < 5; i++ {
		if a, _ := answerOne(ctx, o, q); a != first {
			t.Fatalf("sticky noise broken: %v != %v", a, first)
		}
	}
	if a, _ := answerOne(ctx, o, []int{20, 12, 9, 7, 3, 0}); a != first {
		t.Error("sticky noise should be order-independent in the query set")
	}
	// A different query set (almost surely) gets different noise.
	if a, _ := answerOne(ctx, o, []int{0, 3, 7, 9, 12, 21}); a == first {
		t.Error("distinct queries returned identical answers (suspicious)")
	}
	// Different seeds decorrelate answers to the same query.
	o2 := &StickyLaplace{X: x, Eps: 0.5, Seed: 8}
	if a, _ := answerOne(ctx, o2, q); a == first {
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
		if _, err := answerOne(ctx, o, dup); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%T: duplicate-index query should fail with ErrInvalidQuery, got %v", o, err)
		}
		// The same oracle still answers the deduplicated query.
		if _, err := answerOne(ctx, o, []int{0, 2}); err != nil {
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

	// Queries the one-pass increasing check refuses, and those it never
	// sees, each with the text of the full check, on both sides of
	// smallQuery.
	upTo := func(lo, hi int) []int { // lo, lo+1, …, hi-1
		q := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			q = append(q, i)
		}
		return q
	}
	down := func(lo, hi int) []int { // hi-1, hi-2, …, lo
		q := upTo(lo, hi)
		slices.Reverse(q)
		return q
	}
	const outside, duplicate = "query: invalid query: index %d outside dataset of size %d",
		"query: invalid query: duplicate index %d (a query is a subset of [n])"
	for _, c := range []struct {
		name string
		n    int
		q    []int
		want string // "" = valid
	}{
		{"increasing, first -1", 5, []int{-1, 0, 3}, fmt.Sprintf(outside, -1, 5)},
		{"increasing, first -1, long", 25, upTo(-1, 19), fmt.Sprintf(outside, -1, 25)},
		{"increasing, last n", 5, []int{0, 2, 5}, fmt.Sprintf(outside, 5, 5)},
		{"increasing, last n, long", 20, upTo(1, 21), fmt.Sprintf(outside, 20, 20)},
		{"unsorted valid", 5, []int{4, 0, 2}, ""},
		{"unsorted valid, long", 25, down(0, 20), ""},
		{"unsorted duplicate", 5, []int{3, 1, 3}, fmt.Sprintf(duplicate, 3)},
		{"unsorted duplicate, long", 25, append(down(1, 20), 7), fmt.Sprintf(duplicate, 7)},
	} {
		if len(c.q) > smallQuery != strings.HasSuffix(c.name, "long") {
			t.Fatalf("%s: %d indices is on the wrong side of smallQuery", c.name, len(c.q))
		}
		got := ""
		if err := ValidateQuery(c.n, c.q); err != nil {
			got = err.Error()
			if !errors.Is(err, ErrInvalidQuery) {
				t.Errorf("%s: %v does not wrap ErrInvalidQuery", c.name, err)
			}
		}
		if got != c.want {
			t.Errorf("%s: ValidateQuery(%d, %v) = %q, want %q", c.name, c.n, c.q, got, c.want)
		}
	}

	// An increasing query inside [0, n) passes without a seen-bitmap.
	even := make([]int, 128)
	for i := range even {
		even[i] = 2 * i
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := ValidateQuery(256, even); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an increasing 128-index query allocates %v times, want 0", allocs)
	}
}

// randomSubsetsLoop is the per-element draw RandomSubsets must repeat:
// one rng.Intn(2) per element of each set, the element kept on a 1.
func randomSubsetsLoop(rng *rand.Rand, n, m int) [][]int {
	qs := make([][]int, m)
	for j := range qs {
		var q []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				q = append(q, i)
			}
		}
		qs[j] = q
	}
	return qs
}

// TestRandomSubsetsStream: at every seed and shape, RandomSubsets returns
// the sets of the per-element Intn(2) loop, nil where empty and capped
// where not, and leaves rng where that loop leaves it; it allocates a
// fixed small number of times at the serving and LP shapes.
func TestRandomSubsetsStream(t *testing.T) {
	shapes := [][2]int{{0, 3}, {3, 0}, {1, 1}, {63, 65}, {64, 3}, {65, 7}, {48, 192}, {256, 32}}
	for seed := int64(0); seed < 100; seed++ {
		for _, s := range shapes {
			n, m := s[0], s[1]
			rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := RandomSubsets(rng, n, m), randomSubsetsLoop(ref, n, m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %d×%d: sets differ from the Intn(2) loop", seed, n, m)
			}
			for j, q := range got {
				if cap(q) != len(q) {
					t.Fatalf("seed %d, %d×%d: set %d has cap %d > len %d", seed, n, m, j, cap(q), len(q))
				}
			}
			if a, b := rng.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d, %d×%d: next Int63 %d, the loop's %d", seed, n, m, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][2]int{{256, 32}, {48, 192}} {
		if allocs := testing.AllocsPerRun(20, func() { RandomSubsets(rng, s[0], s[1]) }); allocs > 3 {
			t.Errorf("RandomSubsets(rng, %d, %d) allocates %v times, want at most 3", s[0], s[1], allocs)
		}
	}
}
