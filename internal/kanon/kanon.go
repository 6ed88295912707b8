// Package kanon implements the k-anonymity framework of Section 1.1 of the
// paper: anonymization by suppression and generalization of
// quasi-identifiers so that every released record is identical to at least
// k-1 others. Two anonymizers are provided — Mondrian multidimensional
// partitioning and Datafly-style full-domain generalization over value
// hierarchies — together with ℓ-diversity and t-closeness checks,
// information-loss metrics, and the composition (intersection) attack the
// paper cites as a k-anonymity failure mode.
//
// Releases are represented as equivalence classes over the original rows;
// each class carries, per quasi-identifier, the set of raw values it
// covers. That value-set view is exactly what the predicate-singling-out
// attack of Theorem 2.10 consumes: each class induces a predicate on raw
// records whose weight the attacker can bound.
package kanon

import (
	"fmt"
	"sort"

	"singlingout/internal/dataset"
)

// ValueSet is the set of raw values a generalized cell covers.
type ValueSet interface {
	// Contains reports whether the raw value is covered.
	Contains(v int64) bool
	// Size returns the number of raw domain values covered.
	Size() int64
	// Label renders the generalized cell.
	Label() string
}

// Interval is a contiguous inclusive range of raw values (Mondrian cells).
type Interval struct {
	Lo, Hi int64
}

// Contains implements ValueSet.
func (iv Interval) Contains(v int64) bool { return v >= iv.Lo && v <= iv.Hi }

// Size implements ValueSet.
func (iv Interval) Size() int64 { return iv.Hi - iv.Lo + 1 }

// Label implements ValueSet.
func (iv Interval) Label() string {
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("%d", iv.Lo)
	}
	return fmt.Sprintf("%d-%d", iv.Lo, iv.Hi)
}

// HierarchyGroup is a generalization-hierarchy cell (full-domain cells).
type HierarchyGroup struct {
	H     *dataset.IntRangeHierarchy
	Level int
	Group int64
}

// Contains implements ValueSet.
func (g HierarchyGroup) Contains(v int64) bool { return g.H.GroupOf(v, g.Level) == g.Group }

// Size implements ValueSet.
func (g HierarchyGroup) Size() int64 { return g.H.GroupSize(g.Group, g.Level) }

// Label implements ValueSet.
func (g HierarchyGroup) Label() string { return g.H.Label(g.Group, g.Level) }

// Class is one equivalence class of a release: the covered value sets per
// quasi-identifier, and the original row indices it contains.
type Class struct {
	Cells []ValueSet // aligned with Release.QI
	Rows  []int
}

// Release is the output of a k-anonymizer.
type Release struct {
	Schema *dataset.Schema
	// QI lists the generalized attribute indices, aligned with class cells.
	QI []int
	// K is the anonymity parameter the release was built for.
	K int
	// Classes are the equivalence classes (each of size >= K).
	Classes []Class
	// Suppressed lists rows removed entirely from the release.
	Suppressed []int
}

// IsKAnonymous verifies the syntactic k-anonymity property: every class
// has at least k rows.
func (r *Release) IsKAnonymous() bool {
	for _, c := range r.Classes {
		if len(c.Rows) < r.K {
			return false
		}
	}
	return true
}

// SplitPolicy selects the Mondrian variant.
type SplitPolicy int

// Mondrian split policies.
const (
	// StrictMedian splits at the median and requires both sides >= k
	// (strict multidimensional partitioning; LeFevre et al.).
	StrictMedian SplitPolicy = iota
	// RelaxedBalanced allows shifting the cut away from the median to
	// salvage splits the strict policy rejects, yielding smaller classes
	// (less information loss) at the same k.
	RelaxedBalanced
)

// MondrianOptions configures the Mondrian anonymizer.
type MondrianOptions struct {
	Policy SplitPolicy
	// MinLDiversity, when > 1, additionally requires every class to
	// contain at least this many distinct values of SensitiveAttr.
	MinLDiversity int
	SensitiveAttr int
}

// Mondrian k-anonymizes the dataset over the given quasi-identifiers using
// multidimensional partitioning. All attributes are treated as ordered
// (categorical attributes by category index), the standard Mondrian
// relaxation.
func Mondrian(d *dataset.Dataset, qi []int, k int, opts MondrianOptions) (*Release, error) {
	if k < 1 {
		return nil, fmt.Errorf("kanon: k = %d, want >= 1", k)
	}
	if len(qi) == 0 {
		return nil, fmt.Errorf("kanon: no quasi-identifiers given")
	}
	for _, a := range qi {
		if a < 0 || a >= len(d.Schema.Attrs) {
			return nil, fmt.Errorf("kanon: quasi-identifier index %d out of range", a)
		}
	}
	if d.Len() < k {
		// Everything must be suppressed.
		rel := &Release{Schema: d.Schema, QI: qi, K: k}
		for i := range d.Rows {
			rel.Suppressed = append(rel.Suppressed, i)
		}
		return rel, nil
	}
	rel := &Release{Schema: d.Schema, QI: qi, K: k}
	rows := make([]int, d.Len())
	for i := range rows {
		rows[i] = i
	}
	m := &mondrian{d: d, qi: qi, k: k, opts: opts, rel: rel}
	m.partition(rows)
	return rel, nil
}

type mondrian struct {
	d    *dataset.Dataset
	qi   []int
	k    int
	opts MondrianOptions
	rel  *Release
}

// diversityOK reports whether a row set meets the configured ℓ-diversity.
func (m *mondrian) diversityOK(rows []int) bool {
	if m.opts.MinLDiversity <= 1 {
		return true
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		seen[m.d.Rows[r][m.opts.SensitiveAttr]] = true
		if len(seen) >= m.opts.MinLDiversity {
			return true
		}
	}
	return false
}

func (m *mondrian) partition(rows []int) {
	// Try dimensions in decreasing order of normalized range.
	type dim struct {
		attr   int // position within qi
		spread float64
	}
	dims := make([]dim, len(m.qi))
	for j, a := range m.qi {
		lo, hi := m.minMax(rows, a)
		size := float64(m.d.Schema.Attrs[a].DomainSize())
		dims[j] = dim{attr: j, spread: float64(hi-lo) / size}
	}
	sort.Slice(dims, func(i, j int) bool { return dims[i].spread > dims[j].spread })
	for _, dm := range dims {
		if dm.spread == 0 {
			break // no dimension with any spread remains
		}
		left, right, ok := m.trySplit(rows, m.qi[dm.attr])
		if !ok {
			continue
		}
		m.partition(left)
		m.partition(right)
		return
	}
	// No allowed split: emit the class.
	m.emit(rows)
}

func (m *mondrian) minMax(rows []int, attr int) (int64, int64) {
	lo, hi := m.d.Rows[rows[0]][attr], m.d.Rows[rows[0]][attr]
	for _, r := range rows[1:] {
		v := m.d.Rows[r][attr]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// trySplit attempts to cut rows along attr so that both halves have >= k
// rows (and meet diversity). Values equal to the cut go left.
func (m *mondrian) trySplit(rows []int, attr int) (left, right []int, ok bool) {
	sorted := make([]int, len(rows))
	copy(sorted, rows)
	sort.Slice(sorted, func(i, j int) bool {
		return m.d.Rows[sorted[i]][attr] < m.d.Rows[sorted[j]][attr]
	})
	tryCut := func(cut int64) ([]int, []int, bool) {
		var l, r []int
		for _, x := range sorted {
			if m.d.Rows[x][attr] <= cut {
				l = append(l, x)
			} else {
				r = append(r, x)
			}
		}
		if len(l) < m.k || len(r) < m.k || !m.diversityOK(l) || !m.diversityOK(r) {
			return nil, nil, false
		}
		return l, r, true
	}
	// Lower median: with an even row count this is the largest cut that
	// keeps the left half at half the rows, so balanced splits succeed.
	median := m.d.Rows[sorted[(len(sorted)-1)/2]][attr]
	if l, r, ok := tryCut(median); ok {
		return l, r, true
	}
	if m.opts.Policy == RelaxedBalanced {
		// Try every other distinct value as the cut, in ascending order
		// (the median already failed above); the first cut that passes
		// wins.
		values := distinctSorted(m.d, sorted, attr)
		for _, cut := range values {
			if cut == median {
				continue
			}
			if l, r, ok := tryCut(cut); ok {
				return l, r, true
			}
		}
	}
	return nil, nil, false
}

func distinctSorted(d *dataset.Dataset, rows []int, attr int) []int64 {
	seen := map[int64]bool{}
	var vs []int64
	for _, r := range rows {
		v := d.Rows[r][attr]
		if !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

func (m *mondrian) emit(rows []int) {
	if !m.diversityOK(rows) {
		// The class cannot meet the diversity requirement no matter how it
		// is generalized; suppress its rows.
		m.rel.Suppressed = append(m.rel.Suppressed, rows...)
		sort.Ints(m.rel.Suppressed)
		return
	}
	cells := make([]ValueSet, len(m.qi))
	for j, a := range m.qi {
		lo, hi := m.minMax(rows, a)
		cells[j] = Interval{Lo: lo, Hi: hi}
	}
	class := Class{Cells: cells, Rows: append([]int(nil), rows...)}
	sort.Ints(class.Rows)
	m.rel.Classes = append(m.rel.Classes, class)
}
