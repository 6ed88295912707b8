package kanon

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"singlingout/internal/dataset"
)

// WriteGeneralizedCSV renders the release as CSV in the shape a data
// publisher would ship: one row per released record, quasi-identifier
// cells replaced by their generalized labels (cellLabel), all other
// attributes verbatim, suppressed rows omitted. The header matches the
// source schema.
func WriteGeneralizedCSV(w io.Writer, d *dataset.Dataset, rel *Release) error {
	if d.Schema != rel.Schema {
		return fmt.Errorf("kanon: release schema does not match dataset")
	}
	cw := csv.NewWriter(w)
	header := make([]string, len(d.Schema.Attrs))
	for i, a := range d.Schema.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("kanon: write header: %w", err)
	}
	qiPos := make(map[int]int, len(rel.QI))
	for j, a := range rel.QI {
		qiPos[a] = j
	}
	cells := make([]string, len(header))
	labels := make([]string, len(rel.QI))
	for _, class := range rel.Classes {
		for j, a := range rel.QI {
			labels[j] = cellLabel(&d.Schema.Attrs[a], class.Cells[j])
		}
		for _, row := range class.Rows {
			for i := range d.Schema.Attrs {
				if j, isQI := qiPos[i]; isQI {
					cells[i] = labels[j]
				} else {
					cells[i] = d.Schema.Attrs[i].ValueString(d.Rows[row][i])
				}
			}
			if err := cw.Write(cells); err != nil {
				return fmt.Errorf("kanon: write row: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("kanon: flush: %w", err)
	}
	return nil
}

// cellLabel renders a generalized cell of attribute a. A numeric cell
// reads as its own label. A categorical cell reads by category name: the
// name of its one category, "*" when it covers every category, and
// otherwise the names it covers, in category order, joined by "|".
func cellLabel(a *dataset.Attribute, c ValueSet) string {
	if a.Kind != dataset.Categorical {
		return c.Label()
	}
	var names []string
	for v, name := range a.Categories {
		if c.Contains(int64(v)) {
			names = append(names, name)
		}
	}
	if len(names) > 1 && len(names) == len(a.Categories) {
		return "*"
	}
	return strings.Join(names, "|")
}
