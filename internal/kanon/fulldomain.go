package kanon

import (
	"fmt"
	"sort"

	"singlingout/internal/dataset"
)

// FullDomainOptions configures the Datafly-style full-domain anonymizer.
type FullDomainOptions struct {
	// Hierarchies maps each quasi-identifier attribute index to its value
	// generalization hierarchy. Every QI must have one.
	Hierarchies map[int]*dataset.IntRangeHierarchy
	// MaxSuppress is the largest number of rows that may be suppressed
	// instead of generalizing further (Datafly's suppression allowance).
	MaxSuppress int
}

// FullDomain k-anonymizes by full-domain generalization: every value of an
// attribute is generalized to the same hierarchy level, and the attribute
// with the most distinct values is generalized first (Sweeney's Datafly
// heuristic). Rows left in undersized groups are suppressed if the
// allowance permits; otherwise generalization continues.
//
// Unlike Mondrian, which cuts each cell to the data, the resulting class
// cells are hierarchy groups: the aligned intervals of each attribute's
// hierarchy, at one level for every row.
func FullDomain(d *dataset.Dataset, qi []int, k int, opts FullDomainOptions) (*Release, []int, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("kanon: k = %d, want >= 1", k)
	}
	if len(qi) == 0 {
		return nil, nil, fmt.Errorf("kanon: no quasi-identifiers given")
	}
	levels := make([]int, len(qi))
	hs := make([]*dataset.IntRangeHierarchy, len(qi))
	for j, a := range qi {
		h, ok := opts.Hierarchies[a]
		if !ok {
			return nil, nil, fmt.Errorf("kanon: no hierarchy for attribute %d (%s)", a, d.Schema.Attrs[a].Name)
		}
		hs[j] = h
	}
	for {
		groups := groupByLevels(d, qi, hs, levels)
		small := 0
		for _, rows := range groups {
			if len(rows) < k {
				small += len(rows)
			}
		}
		if small <= opts.MaxSuppress {
			rel := buildRelease(d, qi, k, hs, levels, groups)
			return rel, append([]int(nil), levels...), nil
		}
		// Generalize the QI with the most distinct current groups, if any
		// can still be generalized.
		bestJ, bestDistinct := -1, -1
		for j := range qi {
			if levels[j]+1 >= hs[j].Levels() {
				continue
			}
			distinct := countDistinct(d, qi[j], hs[j], levels[j])
			if distinct > bestDistinct {
				bestJ, bestDistinct = j, distinct
			}
		}
		if bestJ < 0 {
			// Fully generalized and still undersized groups: suppress them
			// regardless of the allowance (nothing else remains).
			rel := buildRelease(d, qi, k, hs, levels, groups)
			return rel, append([]int(nil), levels...), nil
		}
		levels[bestJ]++
	}
}

func countDistinct(d *dataset.Dataset, attr int, h *dataset.IntRangeHierarchy, level int) int {
	seen := map[int64]bool{}
	for _, r := range d.Rows {
		seen[h.GroupOf(r[attr], level)] = true
	}
	return len(seen)
}

func groupByLevels(d *dataset.Dataset, qi []int, hs []*dataset.IntRangeHierarchy, levels []int) map[string][]int {
	groups := map[string][]int{}
	for i, r := range d.Rows {
		key := ""
		for j, a := range qi {
			key += fmt.Sprintf("%d|", hs[j].GroupOf(r[a], levels[j]))
		}
		groups[key] = append(groups[key], i)
	}
	return groups
}

func buildRelease(d *dataset.Dataset, qi []int, k int, hs []*dataset.IntRangeHierarchy, levels []int, groups map[string][]int) *Release {
	rel := &Release{Schema: d.Schema, QI: qi, K: k}
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys) // deterministic class order
	for _, key := range keys {
		rows := groups[key]
		if len(rows) < k {
			rel.Suppressed = append(rel.Suppressed, rows...)
			continue
		}
		cells := make([]ValueSet, len(qi))
		first := d.Rows[rows[0]]
		for j, a := range qi {
			cells[j] = HierarchyGroup{H: hs[j], Level: levels[j], Group: hs[j].GroupOf(first[a], levels[j])}
		}
		cl := Class{Cells: cells, Rows: append([]int(nil), rows...)}
		sort.Ints(cl.Rows)
		rel.Classes = append(rel.Classes, cl)
	}
	sort.Ints(rel.Suppressed)
	return rel
}
