// Package diffix re-implements the anonymizing query interface attacked
// by Cohen and Nissim in "Linear Program Reconstruction in Practice" ([13]
// in the paper): a Diffix-style "cloak" that answers counting queries with
// sticky noise (the same query always gets the same noise, to block
// averaging attacks) and refuses to answer queries over small user sets
// (low-count suppression). The package then demonstrates that these two
// defenses do not prevent linear-program reconstruction of the protected
// attribute.
package diffix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"singlingout/internal/query"
	"singlingout/internal/recon"
)

// ErrSuppressed is the sentinel for queries over too few users (low-count
// suppression). The Cloak and the query service's diffix backend wrap it,
// so call sites match with errors.Is.
var ErrSuppressed = errors.New("diffix: bucket suppressed (too few users)")

// Cloak is the anonymizing query interface. It implements query.Oracle,
// so the reconstruction attacks in package recon run against it unchanged
// — in-process or behind the query service's diffix endpoint. Its answers
// are deterministic in (Seed, query set) and it holds no mutable state,
// so a Cloak may serve concurrent analysts.
type Cloak struct {
	// X is the protected binary attribute per user.
	X []int64
	// SD is the sticky noise standard deviation (Diffix layers a few
	// Gaussian noise terms; we model their sum).
	SD float64
	// Threshold is the low-count suppression bound: queries naming fewer
	// users are refused.
	Threshold int
	// Seed keys the sticky-noise PRF.
	Seed int64
}

// N implements query.Oracle.
func (c *Cloak) N() int { return len(c.X) }

// Answer implements query.Oracle: each query is answered with the count
// of flagged users among q plus sticky noise, or refused with a wrapped
// ErrSuppressed. The batch fails as a unit on the first refused or
// malformed query.
func (c *Cloak) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	out := make([]float64, len(queries))
	for qi, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := c.answerOne(q)
		if err != nil {
			return nil, err
		}
		out[qi] = a
	}
	return out, nil
}

// answerOne is the per-query cloak: suppression, validation, sticky noise.
func (c *Cloak) answerOne(q []int) (float64, error) {
	if len(q) < c.Threshold {
		return 0, fmt.Errorf("%w: %d < %d", ErrSuppressed, len(q), c.Threshold)
	}
	// Same well-formedness contract as the query package's oracles: a
	// duplicated user would be counted twice here but once by the LP
	// decoder's coefficient rows, so the query is rejected instead.
	if err := query.ValidateQuery(len(c.X), q); err != nil {
		return 0, fmt.Errorf("diffix: %w", err)
	}
	var sum int64
	h := uint64(c.Seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for _, i := range q {
		sum += c.X[i]
		// Order-independent sticky hash of the query set: queries are
		// canonical (sorted index sets), so mixing sequentially is stable.
		h ^= (uint64(i) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
		h *= 0x94d049bb133111eb
	}
	// Sticky noise: deterministic in the query set.
	rng := rand.New(rand.NewSource(int64(h)))
	return float64(sum) + rng.NormFloat64()*c.SD, nil
}

// AttackResult summarizes a reconstruction attack against a Cloak.
type AttackResult struct {
	// QueriesIssued is the number of answered queries used.
	QueriesIssued int
	// HammingError is the fraction of users whose protected bit was
	// reconstructed incorrectly.
	HammingError float64
	// MeanAbsResidual is the LP's mean per-query violation (diagnostic).
	MeanAbsResidual float64
}

// Attack mounts the Cohen–Nissim LP reconstruction: it issues m random
// subset queries that are large enough to evade suppression, then solves
// the L1-fitting linear program for the protected bits.
func Attack(ctx context.Context, rng *rand.Rand, c *Cloak, m int) (AttackResult, []int64, error) {
	n := c.N()
	if m <= 0 {
		return AttackResult{}, nil, fmt.Errorf("diffix: need a positive query count")
	}
	queries := make([][]int, 0, m)
	for len(queries) < m {
		q := query.RandomSubsets(rng, n, 1)[0]
		if len(q) < c.Threshold {
			continue // would be suppressed; the attacker skips it
		}
		queries = append(queries, q)
	}
	guess, frac, err := recon.LPDecode(ctx, query.Instrument(c, nil), queries, recon.L1Slack)
	if err != nil {
		return AttackResult{}, nil, fmt.Errorf("diffix: %w", err)
	}
	res := AttackResult{
		QueriesIssued: len(queries),
		HammingError:  recon.HammingError(c.X, guess),
	}
	// Residual diagnostic: replay the sticky answers against the LP's
	// fractional solution.
	replay, err := c.Answer(ctx, queries) // sticky: same answers as during the attack
	if err != nil {
		return AttackResult{}, nil, err
	}
	var resid float64
	for qi, q := range queries {
		s := 0.0
		for _, i := range q {
			s += frac[i]
		}
		resid += math.Abs(replay[qi] - s)
	}
	res.MeanAbsResidual = resid / float64(len(queries))
	return res, guess, nil
}

var _ query.Oracle = (*Cloak)(nil)
