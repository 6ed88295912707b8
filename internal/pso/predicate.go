// Package pso implements the paper's primary contribution: the
// predicate-singling-out (PSO) framework of Section 2 (Definitions
// 2.1-2.4), the attacks and defenses of Theorems 2.5-2.10, and the
// experiment harness that measures whether a mechanism prevents predicate
// singling out.
//
// The cast of characters mirrors the paper exactly:
//
//   - a Distribution D over records, from which a dataset x ~ D^n is drawn
//     i.i.d.;
//   - a Mechanism M mapping the dataset to a released output;
//   - an Attacker A mapping the released output to a Predicate p;
//   - success means p isolates (Σ p(x_i) = 1, Definition 2.1) AND p has
//     weight w_D(p) at most the negligible-weight threshold τ
//     (Definition 2.4).
//
// Weight accounting. Experiments need w_D(p) for thresholds far below
// Monte Carlo resolution, so every predicate carries a *nominal* weight:
// an analytic value under the stated idealization (hash predicates behave
// as uniform 64-bit labels; box weights are measured against D by
// sampling at construction). The harness additionally Monte-Carlo
// estimates weights at feasible scales so the idealization is checkable;
// see DESIGN.md.
package pso

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"singlingout/internal/dataset"
	"singlingout/internal/kanon"
)

// Predicate is a {0,1}-valued function over raw records — the object an
// attacker must output (Section 2.1: "a collection of attributes is a
// predicate").
type Predicate interface {
	// Eval evaluates the predicate on a raw record.
	Eval(r dataset.Record) bool
	// NominalWeight is the predicate's weight w_D(p) under the package's
	// documented idealization.
	NominalWeight() float64
	// Describe renders the predicate for reports.
	Describe() string
}

// IsolationCount returns Σ_i p(x_i) over the dataset. The predicate
// isolates (Definition 2.1) exactly when this is 1.
func IsolationCount(p Predicate, d *dataset.Dataset) int {
	n := 0
	for _, r := range d.Rows {
		if p.Eval(r) {
			n++
		}
	}
	return n
}

// Isolates reports whether p isolates in d (Definition 2.1).
func Isolates(p Predicate, d *dataset.Dataset) bool {
	return IsolationCount(p, d) == 1
}

// EstimateWeight Monte-Carlo-estimates w_D(p) = Pr_{x~D}[p(x)=1] with the
// given number of samples.
func EstimateWeight(rng *rand.Rand, p Predicate, sample func(*rand.Rand) dataset.Record, samples int) float64 {
	if samples <= 0 {
		panic("pso: EstimateWeight needs positive sample count")
	}
	hits := 0
	for i := 0; i < samples; i++ {
		if p.Eval(sample(rng)) {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// Equality is the trivial attacker's predicate from the paper's worked
// example: p(x) = 1 iff x[Attr] = Value (e.g. "birthday is Apr-30").
type Equality struct {
	Attr  int
	Value int64
	// Weight is the probability mass of Value under D, supplied by the
	// caller who knows the distribution (1/365 in the worked example).
	Weight float64
}

// Eval implements Predicate.
func (e Equality) Eval(r dataset.Record) bool { return r[e.Attr] == e.Value }

// NominalWeight implements Predicate.
func (e Equality) NominalWeight() float64 { return e.Weight }

// Describe implements Predicate.
func (e Equality) Describe() string {
	return fmt.Sprintf("attr[%d] == %d (w=%.3g)", e.Attr, e.Value, e.Weight)
}

// hashRecord hashes a record's cells with a seed (FNV-1a over the int64
// cells, least significant byte first). Distinct records get
// independent-looking 64-bit labels; this is the package's stand-in for
// the Leftover-Hash-Lemma predicates used in Section 2.2 of the paper.
// The eight byte steps per cell are written out, since this is the
// innermost loop of every hash-predicate count.
func hashRecord(seed uint64, r dataset.Record) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ (seed * prime)
	for _, v := range r {
		u := uint64(v)
		h = (h ^ u&0xff) * prime
		h = (h ^ u>>8&0xff) * prime
		h = (h ^ u>>16&0xff) * prime
		h = (h ^ u>>24&0xff) * prime
		h = (h ^ u>>32&0xff) * prime
		h = (h ^ u>>40&0xff) * prime
		h = (h ^ u>>48&0xff) * prime
		h = (h ^ u>>56) * prime
	}
	return h
}

// hashMemo holds one seed's hashes of a dataset's rows, so that a run of
// HashPrefix queries under that seed (the prefix-descent attack) hashes
// each record once. The dataset must not change while the memo is in use;
// each CountOracle owns its own.
type hashMemo struct {
	filled bool
	seed   uint64
	hashes []uint64
}

// count returns IsolationCount(p, d). A HashPrefix is counted over the
// memo, which is re-filled only when its seed differs from the memo's;
// every other predicate goes to IsolationCount.
func (m *hashMemo) count(p Predicate, d *dataset.Dataset) int {
	pre, ok := p.(HashPrefix)
	if !ok {
		return IsolationCount(p, d)
	}
	if !m.filled || m.seed != pre.Seed {
		m.hashes = slices.Grow(m.hashes[:0], len(d.Rows))
		for _, r := range d.Rows {
			m.hashes = append(m.hashes, hashRecord(pre.Seed, r))
		}
		m.filled, m.seed = true, pre.Seed
	}
	n := 0
	for _, h := range m.hashes {
		if pre.matchHash(h) {
			n++
		}
	}
	return n
}

// HashPrefix is a pseudorandom predicate: true iff the top Depth bits of
// the record's seeded hash equal Prefix. Its nominal weight is 2^-Depth
// (exact under the hash-uniformity idealization for records that are
// distinct as tuples).
type HashPrefix struct {
	Seed   uint64
	Depth  int
	Prefix uint64
}

// Eval implements Predicate.
func (h HashPrefix) Eval(r dataset.Record) bool { return h.matchHash(hashRecord(h.Seed, r)) }

// matchHash reports whether a record whose seeded hash is x satisfies h.
func (h HashPrefix) matchHash(x uint64) bool {
	return h.Depth == 0 || x>>(64-uint(h.Depth)) == h.Prefix
}

// NominalWeight implements Predicate.
func (h HashPrefix) NominalWeight() float64 { return math.Pow(2, -float64(h.Depth)) }

// Describe implements Predicate.
func (h HashPrefix) Describe() string {
	return fmt.Sprintf("hash(seed=%d) prefix %0*b (depth %d)", h.Seed, h.Depth, h.Prefix, h.Depth)
}

// HashMod is a pseudorandom predicate of weight ~1/m: true iff the
// record's seeded hash is ≡ Residue (mod M). It is the "predicate of
// weight 1/k'" refinement used in the Theorem 2.10 attack.
type HashMod struct {
	Seed    uint64
	M       uint64
	Residue uint64
}

// Eval implements Predicate.
func (h HashMod) Eval(r dataset.Record) bool {
	if h.M == 0 {
		return true
	}
	return hashRecord(h.Seed, r)%h.M == h.Residue
}

// NominalWeight implements Predicate.
func (h HashMod) NominalWeight() float64 {
	if h.M == 0 {
		return 1
	}
	return 1 / float64(h.M)
}

// Describe implements Predicate.
func (h HashMod) Describe() string {
	return fmt.Sprintf("hash(seed=%d) mod %d == %d", h.Seed, h.M, h.Residue)
}

// ClassBox is the predicate induced by a k-anonymity equivalence class
// (Theorem 2.10): true iff the record falls in every generalized cell of
// the class. Because the joint weight of a tight high-dimensional box is
// far below Monte Carlo resolution, the nominal weight is computed as the
// product of per-attribute marginal weights (each estimated by sampling) —
// exact when the box attributes are independent under D, which holds for
// the synthetic population when the quasi-identifier set avoids the
// derived age and zip attributes (see synth).
type ClassBox struct {
	QI     []int
	Cells  []kanon.ValueSet
	Weight float64 // product-of-marginals estimate of w_D(box)
}

// CellMarginal estimates Pr_{x~D}[cell contains x[attr]] by sampling.
func CellMarginal(rng *rand.Rand, cell kanon.ValueSet, attr int, sample func(*rand.Rand) dataset.Record, samples int) float64 {
	hits := 0
	for i := 0; i < samples; i++ {
		if cell.Contains(sample(rng)[attr]) {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// NewClassBox builds the box predicate for a release class, estimating
// its nominal weight as the product of per-attribute marginals with the
// given per-attribute sample budget. If skipQIPos >= 0, that cell is left
// out of the box entirely (used by the corner attack, which replaces it
// with an equality).
func NewClassBox(rng *rand.Rand, rel *kanon.Release, classIdx int, sample func(*rand.Rand) dataset.Record, samples int, skipQIPos int) ClassBox {
	c := rel.Classes[classIdx]
	box := ClassBox{Weight: 1}
	for j, cell := range c.Cells {
		if j == skipQIPos {
			continue
		}
		box.QI = append(box.QI, rel.QI[j])
		box.Cells = append(box.Cells, cell)
		box.Weight *= CellMarginal(rng, cell, rel.QI[j], sample, samples)
	}
	return box
}

// Eval implements Predicate.
func (b ClassBox) Eval(r dataset.Record) bool {
	for j, cell := range b.Cells {
		if !cell.Contains(r[b.QI[j]]) {
			return false
		}
	}
	return true
}

// NominalWeight implements Predicate.
func (b ClassBox) NominalWeight() float64 { return b.Weight }

// Describe implements Predicate.
func (b ClassBox) Describe() string {
	s := "box{"
	for j, cell := range b.Cells {
		if j > 0 {
			s += ","
		}
		s += cell.Label()
	}
	return s + fmt.Sprintf("} (w≈%.3g)", b.Weight)
}

// And is the conjunction of predicates; its nominal weight is the product
// of the parts' weights (exact when the parts are independent under D,
// e.g. a data-derived box and a fresh-seed hash predicate) and in any case
// bounded by the minimum.
type And struct {
	Parts []Predicate
}

// Eval implements Predicate.
func (a And) Eval(r dataset.Record) bool {
	for _, p := range a.Parts {
		if !p.Eval(r) {
			return false
		}
	}
	return true
}

// NominalWeight implements Predicate. The product rule is the idealized
// independent-parts value; the minimum of the parts is always an upper
// bound, and the product never exceeds it.
func (a And) NominalWeight() float64 {
	w := 1.0
	for _, p := range a.Parts {
		w *= p.NominalWeight()
	}
	return w
}

// Describe implements Predicate.
func (a And) Describe() string {
	s := ""
	for i, p := range a.Parts {
		if i > 0 {
			s += " ∧ "
		}
		s += p.Describe()
	}
	return s
}
