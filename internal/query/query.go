// Package query implements the statistical-query interface of Section 1 of
// the paper: a dataset x ∈ {0,1}^n is accessed only through a mechanism
// that answers subset-sum queries q ⊆ [n] with an estimate of Σ_{i∈q} x_i.
//
// The package provides exact, bounded-error and Laplace-noised oracles, a
// query-budget wrapper, and workload generators. Reconstruction attacks
// (package recon) and the predicate-singling-out experiments (package pso)
// are written against the Oracle interface, so the same attack code runs
// against every defense — including the networked statistical-query
// service in query/remote, whose client implements the same interface
// over HTTP.
//
// The interface is batch-first and context-aware: an attack submits its
// whole workload in one Answer call, which lets a remote oracle amortize
// round trips and lets a server account, cache and parallelize the batch
// as one unit.
package query

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"singlingout/internal/dist"
)

// ErrBudgetExhausted is the sentinel for a query refused because the
// analyst's query budget is spent. The remote client wraps it when the
// query service refuses a batch, so call sites match with errors.Is
// rather than on error text.
var ErrBudgetExhausted = errors.New("query: query budget exhausted")

// ErrInvalidQuery is the sentinel for a malformed query: an out-of-range
// or duplicated index. ValidateQuery (and therefore every built-in
// oracle, the recon decoders, and the query service's wire boundary)
// wraps it.
var ErrInvalidQuery = errors.New("query: invalid query")

// ErrOverloaded is the sentinel for a query refused by admission control:
// the serving side's bounded queue was full and the request was shed
// rather than answered. Unlike ErrBudgetExhausted it spends nothing and
// is transient — the remote client retries it with backoff (honoring the
// server's retry-after hint) before surfacing it, so a caller seeing it
// has already outlasted the retry policy.
var ErrOverloaded = errors.New("query: server overloaded")

// Oracle answers subset-sum queries over a hidden binary dataset.
type Oracle interface {
	// Answer returns one estimate of Σ_{i∈q} x_i per query, in order.
	// Implementations define their own error guarantee. Every query must
	// be a well-formed subset query (see ValidateQuery): the built-in
	// oracles reject out-of-range and duplicated indices. A batch fails
	// or succeeds as a unit — on error no answers are returned — and
	// implementations honor ctx cancellation between queries.
	Answer(ctx context.Context, queries [][]int) ([]float64, error)
	// N returns the number of records in the hidden dataset.
	N() int
}

// answerEach is the shared batch loop of the in-process oracles: one
// answer per query, honoring ctx cancellation between queries.
func answerEach(ctx context.Context, queries [][]int, one func(q []int) (float64, error)) ([]float64, error) {
	out := make([]float64, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := one(q)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// Exact answers every query with the true sum — the "blatantly non-private"
// end of the spectrum. Safe for concurrent use (it is a pure read).
type Exact struct {
	X []int64
}

// Answer implements Oracle with zero error.
func (e *Exact) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	return answerEach(ctx, queries, func(q []int) (float64, error) {
		s, err := trueSum(e.X, q)
		return float64(s), err
	})
}

// N implements Oracle.
func (e *Exact) N() int { return len(e.X) }

// BoundedNoise answers with the true sum plus independent uniform noise in
// [-Alpha, Alpha] — the "within error α" oracle of Theorem 1.1.
type BoundedNoise struct {
	X     []int64
	Alpha float64
	Rng   *rand.Rand
}

// Answer implements Oracle with |answer - truth| <= Alpha per query.
func (b *BoundedNoise) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	return answerEach(ctx, queries, func(q []int) (float64, error) {
		s, err := trueSum(b.X, q)
		if err != nil {
			return 0, err
		}
		return float64(s) + (2*b.Rng.Float64()-1)*b.Alpha, nil
	})
}

// N implements Oracle.
func (b *BoundedNoise) N() int { return len(b.X) }

// StickyLaplace answers with the true sum plus Laplace(1/Eps) noise that
// is a deterministic function of (Seed, query set) — the "same query,
// same answer" behavior of deployed statistical-query systems, which
// blocks averaging attacks and makes answers cacheable. The noise is
// order-independent in the query's indices, so {2,0} and {0,2} get the
// same answer. It holds no mutable state, so it is safe for concurrent
// use; the query service's laplace backend is built on it.
type StickyLaplace struct {
	X    []int64
	Eps  float64
	Seed int64
}

// Answer implements Oracle with sticky per-query Laplace noise.
func (s *StickyLaplace) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	return answerEach(ctx, queries, func(q []int) (float64, error) {
		sum, err := trueSum(s.X, q)
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(StickySeed(s.Seed, q)))
		return float64(sum) + dist.Laplace(rng, 1/s.Eps), nil
	})
}

// N implements Oracle.
func (s *StickyLaplace) N() int { return len(s.X) }

// StickySeed derives a deterministic per-query-set noise seed from a base
// seed and a query: a commutative mix of per-index hashes, so the seed
// depends only on the set of indices, never their order.
func StickySeed(seed int64, q []int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	var mix uint64
	for _, i := range q {
		x := (uint64(i) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
		x ^= x >> 31
		x *= 0x94d049bb133111eb
		mix += x
	}
	return int64(h ^ mix)
}

// ValidateQuery checks that q is a well-formed subset-sum query over a
// dataset of n records: every index in range and no index repeated. This
// is the single place query well-formedness is defined — a query is a
// subset q ⊆ [n], so a duplicated index has no meaning. Before duplicates
// were rejected here, the built-in oracles counted a duplicated index
// twice while the attacks' candidate evaluations (e.g. the bitmask scan in
// recon.Exhaustive) collapsed it to one, so attacker and oracle silently
// disagreed on what the query meant. Both sides now call ValidateQuery and
// fail identically, as does the query service's wire boundary — a
// malformed query over HTTP is rejected before it reaches any oracle.
// Failures wrap ErrInvalidQuery.
func ValidateQuery(n int, q []int) error {
	if increasingBelow(n, q) {
		return nil
	}
	if len(q) <= smallQuery {
		// Quadratic scan: cheaper than allocating for the short queries the
		// adaptive attacks issue.
		for j, i := range q {
			if i < 0 || i >= n {
				return fmt.Errorf("%w: index %d outside dataset of size %d", ErrInvalidQuery, i, n)
			}
			for _, prev := range q[:j] {
				if prev == i {
					return fmt.Errorf("%w: duplicate index %d (a query is a subset of [n])", ErrInvalidQuery, i)
				}
			}
		}
		return nil
	}
	seen := make([]bool, n)
	for _, i := range q {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: index %d outside dataset of size %d", ErrInvalidQuery, i, n)
		}
		if seen[i] {
			return fmt.Errorf("%w: duplicate index %d (a query is a subset of [n])", ErrInvalidQuery, i)
		}
		seen[i] = true
	}
	return nil
}

// increasingBelow reports whether q is strictly increasing with its
// first index at least 0 and its last below n: the shape of every set
// RandomSubsets draws and of every query the query service expands from
// a bitmap. Such a query is well-formed, which one pass shows without
// allocating; any other query takes ValidateQuery's full check, which
// names the offending index.
func increasingBelow(n int, q []int) bool {
	prev := -1
	for _, i := range q {
		if i <= prev {
			return false
		}
		prev = i
	}
	return prev < n
}

// smallQuery is the length under which duplicate detection scans
// quadratically instead of allocating a seen-bitmap.
const smallQuery = 16

func trueSum(x []int64, q []int) (int64, error) {
	if err := ValidateQuery(len(x), q); err != nil {
		return 0, err
	}
	var s int64
	for _, i := range q {
		s += x[i]
	}
	return s, nil
}

// RandomSubsets draws m independent uniformly random subsets of [n] (each
// element included with probability 1/2) — the standard workload of the
// polynomial Dinur–Nissim attack. Each set is strictly increasing.
//
// It draws as a loop of rng.Intn(2) calls over the m×n elements would:
// one rng.Int63() per element, keeping bit 32, which is the bit Intn(2)
// returns. A seed therefore gives the same sets and leaves rng in the
// same state. The draws are packed into one bit array and counted first,
// so the m sets are cut from one exactly sized array, each a capped
// subslice, and an empty set is nil: a call allocates at most three
// times, whatever n and m.
func RandomSubsets(rng *rand.Rand, n, m int) [][]int {
	qs := make([][]int, m)
	if n <= 0 {
		return qs
	}
	w := (n + 63) / 64 // words per set
	words := make([]uint64, m*w)
	size := 0
	for j := 0; j < m; j++ {
		for k := 0; k < w; k++ {
			var x uint64
			for b := 0; b < min(64, n-64*k); b++ {
				x |= uint64(rng.Int63()>>32&1) << b
			}
			words[j*w+k] = x
			size += bits.OnesCount64(x)
		}
	}
	flat := make([]int, size)
	end := 0
	for j := range qs {
		start := end
		for k, x := range words[j*w : (j+1)*w] {
			for ; x != 0; x &= x - 1 {
				flat[end] = 64*k + bits.TrailingZeros64(x)
				end++
			}
		}
		if end > start {
			qs[j] = flat[start:end:end]
		}
	}
	return qs
}
