package dataset

import (
	"fmt"
)

// IntRangeHierarchy is the value-generalization hierarchy of one integer
// attribute, in the style used by full-domain generalization
// k-anonymizers (Samarati, Sweeney, Datafly): it snaps values to aligned
// intervals of increasing width. Level 0 is the raw value; Widths[l] is
// the interval width at level l+1. The final width should cover the whole
// domain, producing the fully suppressed "*" level.
type IntRangeHierarchy struct {
	Min, Max int64
	Widths   []int64
}

// NewIntRangeHierarchy validates and builds an integer range hierarchy.
// Widths must be strictly increasing and positive.
func NewIntRangeHierarchy(min, max int64, widths ...int64) (*IntRangeHierarchy, error) {
	if min > max {
		return nil, fmt.Errorf("dataset: empty domain [%d,%d]", min, max)
	}
	prev := int64(1)
	for i, w := range widths {
		if w <= prev {
			return nil, fmt.Errorf("dataset: hierarchy widths must be strictly increasing; width %d at index %d", w, i)
		}
		prev = w
	}
	return &IntRangeHierarchy{Min: min, Max: max, Widths: widths}, nil
}

// Levels returns the number of generalization levels, including the
// identity level 0.
func (h *IntRangeHierarchy) Levels() int { return len(h.Widths) + 1 }

func (h *IntRangeHierarchy) width(level int) int64 {
	if level == 0 {
		return 1
	}
	return h.Widths[level-1]
}

// GroupOf maps a raw value to its group id at the given level; level 0
// is the identity up to the offset Min.
func (h *IntRangeHierarchy) GroupOf(v int64, level int) int64 {
	return (v - h.Min) / h.width(level)
}

// Bounds returns the inclusive raw-value interval covered by a group at a
// level, clipped to the attribute domain.
func (h *IntRangeHierarchy) Bounds(group int64, level int) (lo, hi int64) {
	w := h.width(level)
	lo = h.Min + group*w
	hi = lo + w - 1
	if hi > h.Max {
		hi = h.Max
	}
	return lo, hi
}

// Label renders a group id at a level for display: its interval, its
// one value, or "*" for the whole domain.
func (h *IntRangeHierarchy) Label(group int64, level int) string {
	lo, hi := h.Bounds(group, level)
	if lo == h.Min && hi == h.Max {
		return "*"
	}
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// GroupSize returns how many raw domain values map to the given group
// at the given level. It is the denominator of generalization-induced
// predicate weights.
func (h *IntRangeHierarchy) GroupSize(group int64, level int) int64 {
	lo, hi := h.Bounds(group, level)
	return hi - lo + 1
}
