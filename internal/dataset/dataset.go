// Package dataset defines the record and dataset model shared by every
// subsystem in the repository: anonymizers, query mechanisms, attackers and
// the predicate-singling-out framework all operate on dataset.Dataset.
//
// A record is a fixed-width vector of int64 cells, one per schema attribute.
// Categorical attributes store an index into the attribute's Categories
// slice; integer attributes store the value directly. Keeping every cell an
// int64 makes predicates, generalization and linkage pure integer logic.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Kind enumerates the attribute types supported by the schema.
type Kind int

const (
	// Int is an integer-valued attribute with an inclusive [Min, Max] domain.
	Int Kind = iota
	// Categorical is a finite enumerated attribute; cells index Categories.
	Categorical
)

// Attribute describes one column of a dataset.
type Attribute struct {
	Name string
	Kind Kind

	// Min and Max bound the domain of an Int attribute (inclusive).
	Min, Max int64

	// Categories enumerates the values of a Categorical attribute.
	Categories []string

	// QuasiIdentifier marks attributes an attacker may observe in public
	// auxiliary data (ZIP code, birth date, sex, ...).
	QuasiIdentifier bool

	// Sensitive marks attributes whose values anonymization must protect
	// (disease, salary, ...).
	Sensitive bool
}

// DomainSize returns the number of distinct values the attribute can take.
func (a *Attribute) DomainSize() int64 {
	if a.Kind == Categorical {
		return int64(len(a.Categories))
	}
	return a.Max - a.Min + 1
}

// ValueString renders a cell of this attribute for display or CSV export.
func (a *Attribute) ValueString(v int64) string {
	if a.Kind == Categorical {
		if v < 0 || v >= int64(len(a.Categories)) {
			return fmt.Sprintf("<invalid:%d>", v)
		}
		return a.Categories[v]
	}
	return strconv.FormatInt(v, 10)
}

// Parse converts a textual value into a cell for this attribute.
func (a *Attribute) Parse(s string) (int64, error) {
	if a.Kind == Categorical {
		for i, c := range a.Categories {
			if c == s {
				return int64(i), nil
			}
		}
		return 0, fmt.Errorf("dataset: attribute %q has no category %q", a.Name, s)
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("dataset: attribute %q: %w", a.Name, err)
	}
	if v < a.Min || v > a.Max {
		return 0, fmt.Errorf("dataset: attribute %q: value %d outside [%d,%d]", a.Name, v, a.Min, a.Max)
	}
	return v, nil
}

// Schema is an ordered list of attributes with name-based lookup.
type Schema struct {
	Attrs  []Attribute
	byName map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique and non-empty.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{Attrs: attrs, byName: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		if a.Kind == Categorical && len(a.Categories) == 0 {
			return nil, fmt.Errorf("dataset: categorical attribute %q has no categories", a.Name)
		}
		if a.Kind == Int && a.Min > a.Max {
			return nil, fmt.Errorf("dataset: attribute %q has empty domain [%d,%d]", a.Name, a.Min, a.Max)
		}
		s.byName[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// known schemas in tests and generators.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named attribute and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustIndex returns the position of the named attribute, panicking if the
// attribute does not exist. Use for attribute names fixed at compile time.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("dataset: no attribute %q", name))
	}
	return i
}

// QuasiIdentifiers returns the indices of all quasi-identifier attributes.
func (s *Schema) QuasiIdentifiers() []int {
	var qi []int
	for i, a := range s.Attrs {
		if a.QuasiIdentifier {
			qi = append(qi, i)
		}
	}
	return qi
}

// Record is one individual's row: one int64 cell per schema attribute.
type Record []int64

// Clone returns a copy of the record.
func (r Record) Clone() Record {
	c := make(Record, len(r))
	copy(c, r)
	return c
}

// Equal reports whether two records agree on every cell.
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// Key renders the projection of the record onto the given attribute indices
// as a map key.
func (r Record) Key(idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&b, "%d|", r[i])
	}
	return b.String()
}

// Dataset couples a schema with a set of records.
type Dataset struct {
	Schema *Schema
	Rows   []Record
}

// New returns an empty dataset over the given schema.
func New(schema *Schema) *Dataset {
	return &Dataset{Schema: schema}
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Rows) }

// Append adds a record after validating its width against the schema.
func (d *Dataset) Append(r Record) error {
	if len(r) != len(d.Schema.Attrs) {
		return fmt.Errorf("dataset: record width %d != schema width %d", len(r), len(d.Schema.Attrs))
	}
	d.Rows = append(d.Rows, r)
	return nil
}

// MustAppend is Append that panics on error.
func (d *Dataset) MustAppend(r Record) {
	if err := d.Append(r); err != nil {
		panic(err)
	}
}

// Clone deep-copies the dataset (the schema is shared; schemas are
// immutable after construction).
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Schema: d.Schema, Rows: make([]Record, len(d.Rows))}
	for i, r := range d.Rows {
		c.Rows[i] = r.Clone()
	}
	return c
}

// Count returns the number of records satisfying pred.
func (d *Dataset) Count(pred func(Record) bool) int {
	n := 0
	for _, r := range d.Rows {
		if pred(r) {
			n++
		}
	}
	return n
}

// WriteCSV writes the dataset with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(d.Schema.Attrs))
	for i, a := range d.Schema.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, len(header))
	for _, r := range d.Rows {
		for i := range r {
			row[i] = d.Schema.Attrs[i].ValueString(r[i])
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads records matching the schema from CSV data with a header
// row. The header must list exactly the schema's attribute names in order.
func ReadCSV(r io.Reader, schema *Schema) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) != len(schema.Attrs) {
		return nil, fmt.Errorf("dataset: header width %d != schema width %d", len(header), len(schema.Attrs))
	}
	for i, name := range header {
		if name != schema.Attrs[i].Name {
			return nil, fmt.Errorf("dataset: header column %d is %q, want %q", i, name, schema.Attrs[i].Name)
		}
	}
	d := New(schema)
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read row: %w", err)
		}
		row := make(Record, len(rec))
		for i, cell := range rec {
			v, err := schema.Attrs[i].Parse(cell)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}
