package kanon

import (
	"fmt"

	"singlingout/internal/dataset"
)

// This file implements exhaustive full-domain lattice search in the style
// of Samarati/Incognito: instead of Datafly's greedy "generalize the most
// diverse attribute" heuristic, it enumerates every vector of hierarchy
// levels, keeps those that achieve k-anonymity within the suppression
// allowance, and returns the one minimizing an information-loss metric.
// The paper notes optimal k-anonymization is NP-hard [30]; exhaustive
// lattice search is exponential only in the number of quasi-identifiers,
// which is small in practice.

// LossMetric scores candidate releases during lattice search.
type LossMetric int

// Lattice-search objectives.
const (
	// MinimizeGenILoss picks the release with the least generalized
	// information loss.
	MinimizeGenILoss LossMetric = iota
	// MinimizeDiscernibility picks the release with the least
	// discernibility cost.
	MinimizeDiscernibility
)

// OptimalFullDomain exhaustively searches the generalization lattice and
// returns the loss-minimal k-anonymous release, the chosen levels, and
// the number of lattice nodes evaluated. It fails if no level vector
// meets the requirement within the suppression allowance.
func OptimalFullDomain(d *dataset.Dataset, qi []int, k int, opts FullDomainOptions, metric LossMetric) (*Release, []int, int, error) {
	if k < 1 {
		return nil, nil, 0, fmt.Errorf("kanon: k = %d, want >= 1", k)
	}
	if len(qi) == 0 {
		return nil, nil, 0, fmt.Errorf("kanon: no quasi-identifiers given")
	}
	hs := make([]*dataset.IntRangeHierarchy, len(qi))
	maxLevels := make([]int, len(qi))
	latticeSize := 1
	for j, a := range qi {
		h, ok := opts.Hierarchies[a]
		if !ok {
			return nil, nil, 0, fmt.Errorf("kanon: no hierarchy for attribute %d (%s)", a, d.Schema.Attrs[a].Name)
		}
		hs[j] = h
		maxLevels[j] = h.Levels()
		latticeSize *= h.Levels()
	}
	const latticeCap = 100000
	if latticeSize > latticeCap {
		return nil, nil, 0, fmt.Errorf("kanon: lattice of %d nodes exceeds cap %d; use FullDomain (greedy) instead", latticeSize, latticeCap)
	}

	levels := make([]int, len(qi))
	var best *Release
	var bestLevels []int
	bestLoss := 0.0
	evaluated := 0
	for {
		evaluated++
		groups := groupByLevels(d, qi, hs, levels)
		small := 0
		for _, rows := range groups {
			if len(rows) < k {
				small += len(rows)
			}
		}
		if small <= opts.MaxSuppress {
			rel := buildRelease(d, qi, k, hs, levels, groups)
			var loss float64
			switch metric {
			case MinimizeDiscernibility:
				loss = float64(Discernibility(rel, d.Len()))
			default:
				loss = GenILoss(rel)
			}
			if best == nil || loss < bestLoss {
				best, bestLoss = rel, loss
				bestLevels = append([]int(nil), levels...)
			}
		}
		// Advance the mixed-radix level vector.
		j := 0
		for j < len(levels) {
			levels[j]++
			if levels[j] < maxLevels[j] {
				break
			}
			levels[j] = 0
			j++
		}
		if j == len(levels) {
			break
		}
	}
	if best == nil {
		return nil, nil, evaluated, fmt.Errorf("kanon: no lattice node achieves %d-anonymity within %d suppressions", k, opts.MaxSuppress)
	}
	return best, bestLevels, evaluated, nil
}
