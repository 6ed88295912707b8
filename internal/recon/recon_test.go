package recon

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"singlingout/internal/query"
	"singlingout/internal/synth"
)

var ctx = context.Background()

// TestDecodeAllocs bounds the allocations of a Decode on a reused
// Decoder at lp-recon's shape, n = 48 and m = 4n. The decoder's one
// lp.Solver keeps the standard form, the engine and the LU storage, so
// a decode allocates little beyond what it returns: the solution and
// its point, and the fractional and rounded vectors (4 allocations).
// One that builds a new engine per solve makes over 800.
func TestDecodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 48
	qs := query.RandomSubsets(rng, n, 4*n)
	x := synth.BinaryDataset(rng, n, 0.5)
	var pool [][]float64
	for _, c := range []float64{0, 0.25, 0.5, 1, 2} {
		a, err := (&query.BoundedNoise{X: x, Alpha: c * math.Sqrt(float64(n)), Rng: rng}).Answer(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, a)
	}
	dec, err := NewDecoder(n, qs, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	decode := func() {
		if _, _, err := dec.Decode(ctx, pool[i%len(pool)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range pool {
		decode() // grow the engine's scratch to its working size
	}
	got := testing.AllocsPerRun(20, decode)
	t.Logf("%.1f allocations a decode", got)
	if got > 24 {
		t.Errorf("a decode on a reused Decoder made %.1f allocations, want at most 24", got)
	}
}

func TestHammingError(t *testing.T) {
	if got := HammingError([]int64{1, 0, 1, 0}, []int64{1, 1, 1, 1}); got != 0.5 {
		t.Errorf("HammingError = %v, want 0.5", got)
	}
	if got := HammingError(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	HammingError([]int64{1}, []int64{1, 0})
}

func TestExhaustiveExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 12
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 100)
	got, err := Exhaustive(ctx, &query.Exact{X: x}, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, got); e > 0.01 {
		t.Errorf("exact-oracle reconstruction error = %v, want ~0", e)
	}
}

func TestExhaustiveBoundedNoise(t *testing.T) {
	// Theorem 1.1(i): with small error the exhaustive attack reconstructs
	// all but O(alpha) entries.
	rng := rand.New(rand.NewSource(2))
	n := 14
	x := synth.BinaryDataset(rng, n, 0.5)
	alpha := 1.0
	queries := query.RandomSubsets(rng, n, 150)
	o := &query.BoundedNoise{X: x, Alpha: alpha, Rng: rng}
	got, err := Exhaustive(ctx, o, queries, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, got); e > 0.25 {
		t.Errorf("reconstruction error = %v, want small", e)
	}
}

func TestExhaustiveRejectsLargeN(t *testing.T) {
	x := make([]int64, 30)
	if _, err := Exhaustive(ctx, &query.Exact{X: x}, nil, 0); err == nil {
		t.Error("n > 24 should fail")
	}
}

func TestExhaustiveBadQuery(t *testing.T) {
	x := []int64{1, 0}
	if _, err := Exhaustive(ctx, &query.Exact{X: x}, [][]int{{5}}, 0); err == nil {
		t.Error("out-of-range query should fail")
	}
}

func TestExhaustiveNoConsistentCandidate(t *testing.T) {
	// An oracle whose answers are impossible (negative) admits no
	// consistent candidate at alpha=0.1.
	o := &lyingOracle{n: 4}
	_, err := Exhaustive(ctx, o, [][]int{{0}, {1}}, 0.1)
	if err == nil {
		t.Error("expected no-candidate error")
	}
}

type lyingOracle struct{ n int }

func (l *lyingOracle) Answer(_ context.Context, queries [][]int) ([]float64, error) {
	out := make([]float64, len(queries))
	for i := range out {
		out[i] = -5
	}
	return out, nil
}
func (l *lyingOracle) N() int { return l.n }

// refusingOracle refuses every batch with query.ErrBudgetExhausted, as a
// query service does once the analyst's budget is spent.
type refusingOracle struct{ n int }

func (r refusingOracle) Answer(context.Context, [][]int) ([]float64, error) {
	return nil, query.ErrBudgetExhausted
}
func (r refusingOracle) N() int { return r.n }

func TestExhaustivePropagatesOracleError(t *testing.T) {
	if _, err := Exhaustive(ctx, refusingOracle{n: 3}, [][]int{{0}, {1}}, 0); !errors.Is(err, query.ErrBudgetExhausted) {
		t.Errorf("budget exhaustion should propagate, got %v", err)
	}
}

func TestLPDecodeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 32
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	got, frac, err := LPDecode(ctx, &query.Exact{X: x}, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, got); e > 0.02 {
		t.Errorf("LP reconstruction error vs exact oracle = %v", e)
	}
	if len(frac) != n {
		t.Fatalf("frac len = %d", len(frac))
	}
	for i, v := range frac {
		if v < -1e-6 || v > 1+1e-6 {
			t.Errorf("frac[%d] = %v outside [0,1]", i, v)
		}
	}
}

func TestLPDecodeSmallNoiseReconstructs(t *testing.T) {
	// Theorem 1.1(ii): error α = O(√n)/const with 4n random queries
	// reconstructs all but a few percent of entries.
	rng := rand.New(rand.NewSource(4))
	n := 64
	x := synth.BinaryDataset(rng, n, 0.5)
	alpha := 0.25 * math.Sqrt(float64(n)) // = 2
	queries := query.RandomSubsets(rng, n, 4*n)
	o := &query.BoundedNoise{X: x, Alpha: alpha, Rng: rng}
	got, _, err := LPDecode(ctx, o, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, got); e > 0.10 {
		t.Errorf("LP reconstruction error = %v, want <= 0.10 at alpha=%v", e, alpha)
	}
}

func TestLPDecodeLargeNoiseFails(t *testing.T) {
	// The "fundamental law" flip side: with error ~n/3 the answers carry
	// little information and reconstruction should approach coin-flipping.
	rng := rand.New(rand.NewSource(5))
	n := 48
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	o := &query.BoundedNoise{X: x, Alpha: float64(n) / 3, Rng: rng}
	got, _, err := LPDecode(ctx, o, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, got); e < 0.15 {
		t.Errorf("reconstruction error = %v under huge noise; defense should hold", e)
	}
}

func TestLPDecodeChebyshev(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 32
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	o := &query.BoundedNoise{X: x, Alpha: 1.0, Rng: rng}
	got, _, err := LPDecode(ctx, o, queries, Chebyshev)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, got); e > 0.15 {
		t.Errorf("Chebyshev reconstruction error = %v", e)
	}
}

func TestLPDecodeErrors(t *testing.T) {
	x := []int64{1, 0}
	if _, _, err := LPDecode(ctx, &query.Exact{X: x}, nil, L1Slack); err == nil {
		t.Error("no queries should fail")
	}
	if _, _, err := LPDecode(ctx, &query.Exact{X: x}, [][]int{{0}}, LPObjective(99)); err == nil {
		t.Error("unknown objective should fail")
	}
	if _, _, err := LPDecode(ctx, refusingOracle{n: 2}, [][]int{{0}}, L1Slack); !errors.Is(err, query.ErrBudgetExhausted) {
		t.Errorf("oracle error should propagate, got %v", err)
	}
}

func TestRound(t *testing.T) {
	got := Round([]float64{0, 0.49, 0.5, 0.51, 1})
	want := []int64{0, 0, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Round[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLPDecodeAgainstLaplaceOracle(t *testing.T) {
	// With a large privacy budget per query (eps high → little noise) the
	// attack succeeds; this is the "overly accurate answers" regime.
	rng := rand.New(rand.NewSource(7))
	n := 48
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	o := &query.StickyLaplace{X: x, Eps: 5, Seed: 7}
	got, _, err := LPDecode(ctx, o, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, got); e > 0.10 {
		t.Errorf("high-eps Laplace reconstruction error = %v", e)
	}
}

// TestDuplicateIndexQueryConsistency is the regression test for the
// attacker/oracle disagreement on duplicated query indices: the oracle's
// trueSum counted index 0 twice in {0,0,1} while Exhaustive's bitmask (and
// LPDecode's coefficient rows) collapsed it to one — the two sides
// answered different questions. Both paths now reject the query, and with
// the same verdict: it is not a subset of [n].
func TestDuplicateIndexQueryConsistency(t *testing.T) {
	x := []int64{1, 1, 0, 1}
	dup := [][]int{{0, 0, 1}}
	// Oracle path rejects.
	if _, err := (&query.Exact{X: x}).Answer(ctx, dup); err == nil {
		t.Error("oracle should reject a duplicate-index query")
	}
	// Attacker paths reject the same query (before ever reaching an
	// oracle that might have answered it with double-counting), and say
	// why — the old behaviour was a misleading "no consistent candidate"
	// from Exhaustive and a silently wrong reconstruction from LPDecode.
	if _, err := Exhaustive(ctx, &lyingOracle{n: 4}, dup, 0); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Exhaustive should reject a duplicate-index query as such, got %v", err)
	}
	if _, _, err := LPDecode(ctx, &lyingOracle{n: 4}, dup, L1Slack); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("LPDecode should reject a duplicate-index query as such, got %v", err)
	}
}
