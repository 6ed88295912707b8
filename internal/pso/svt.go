package pso

import (
	"errors"
	"fmt"
	"math/rand"

	"singlingout/internal/dataset"
	"singlingout/internal/dp"
)

// This file wires the Sparse Vector Technique into the PSO framework: an
// interactive mechanism that answers adaptive THRESHOLD queries ("does at
// least one record satisfy p?") under a fixed total privacy budget. It is
// the natural defense for the exact regime Theorem 2.8 attacks — long
// adaptive query sequences — and the experiments show it blocks the
// descent attack at bounded ε.

// ThresholdOracle is the released value of SVTCounts: a handle answering
// adaptive "count ≥ 1?" queries through dp.SparseVector.
type ThresholdOracle struct {
	d    *dataset.Dataset
	sv   *dp.SparseVector
	lim  int
	n    int
	memo hashMemo
}

// AtLeastOne answers whether at least one record satisfies p, noised per
// the sparse vector technique. It returns dp.ErrBudgetSpent once the
// positive-answer allowance is exhausted and ErrQueryLimit after lim
// total queries.
func (o *ThresholdOracle) AtLeastOne(p Predicate) (bool, error) {
	if o.lim <= 0 {
		return false, ErrQueryLimit
	}
	o.lim--
	return o.sv.Above(int64(o.memo.count(p, o.d)))
}

// N returns the dataset size.
func (o *ThresholdOracle) N() int { return o.n }

// SVTCounts is the sparse-vector-protected interactive mechanism: up to
// Limit adaptive threshold queries with at most MaxPositive positive
// answers, all under total privacy budget Eps.
type SVTCounts struct {
	Limit       int
	MaxPositive int
	Eps         float64
}

// Release implements Mechanism; the released value is *ThresholdOracle.
func (m SVTCounts) Release(rng *rand.Rand, d *dataset.Dataset) (any, error) {
	if m.Limit <= 0 {
		return nil, fmt.Errorf("pso: SVTCounts needs a positive query limit")
	}
	sv, err := dp.NewSparseVector(rng, m.Eps, 0.5, m.MaxPositive)
	if err != nil {
		return nil, fmt.Errorf("pso: %w", err)
	}
	return &ThresholdOracle{d: d, sv: sv, lim: m.Limit, n: d.Len()}, nil
}

// Describe implements Mechanism.
func (m SVTCounts) Describe() string {
	return fmt.Sprintf("SVT ε=%g: %d threshold queries, %d positives", m.Eps, m.Limit, m.MaxPositive)
}

// PrefixDescentSVT adapts the Theorem 2.8 descent to a threshold oracle:
// at each level it asks "is the left child nonempty?" and walks into a
// nonempty child. Against exact threshold answers this works exactly like
// the counting version; against the sparse vector it collapses, because
// the per-answer noise scales with the positive-answer allowance the long
// walk requires.
type PrefixDescentSVT struct {
	TargetDepth int
}

// Attack implements Attacker.
func (a PrefixDescentSVT) Attack(rng *rand.Rand, released any, n int) (Predicate, error) {
	oracle, ok := released.(*ThresholdOracle)
	if !ok {
		return nil, fmt.Errorf("%w: need *ThresholdOracle, got %T", ErrWrongRelease, released)
	}
	if a.TargetDepth <= 0 || a.TargetDepth > 63 {
		return nil, fmt.Errorf("pso: PrefixDescentSVT target depth %d outside [1,63]", a.TargetDepth)
	}
	seed := rng.Uint64()
	prefix := uint64(0)
	for depth := 1; depth <= a.TargetDepth; depth++ {
		left := HashPrefix{Seed: seed, Depth: depth, Prefix: prefix << 1}
		nonEmpty, err := oracle.AtLeastOne(left)
		if errors.Is(err, dp.ErrBudgetSpent) {
			// Allowance gone: finish the walk blindly.
			remaining := a.TargetDepth - depth + 1
			prefix = prefix<<uint(remaining) | (rng.Uint64() & (1<<uint(remaining) - 1))
			return HashPrefix{Seed: seed, Depth: a.TargetDepth, Prefix: prefix}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pso: svt descent: %w", err)
		}
		if nonEmpty {
			prefix = prefix << 1
		} else {
			prefix = prefix<<1 | 1
		}
	}
	return HashPrefix{Seed: seed, Depth: a.TargetDepth, Prefix: prefix}, nil
}

// Describe implements Attacker.
func (a PrefixDescentSVT) Describe() string {
	return fmt.Sprintf("prefix descent via threshold queries (depth %d)", a.TargetDepth)
}
