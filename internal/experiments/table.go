// Package experiments contains one harness per experiment in DESIGN.md's
// per-experiment index (E01–E19, the ablations A01–A06 and the anytime
// attacks E02.stream and E11.stream). Each harness generates its
// workload, runs the attack/defense under test, and returns a Table whose
// rows are the series the paper's corresponding claim predicts. The same
// harnesses back the CLI tools, the work-counter gate and EXPERIMENTS.md.
//
// Every harness takes a seed (bit-for-bit reproducibility) and a quick
// flag: quick runs shrink sizes/trials for CI; full runs produce the
// numbers recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"singlingout/internal/obs"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics, when non-empty, is the observability delta recorded while
	// the experiment ran (oracle queries, solver pivots/conflicts, ...). It
	// renders as a footer below the notes.
	Metrics obs.Snapshot
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	// Size the column widths to the widest of header and rows; rows may
	// carry more cells than the header.
	ncols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	if !t.Metrics.Empty() {
		if _, err := fmt.Fprintln(w, "  metrics:"); err != nil {
			return err
		}
		for _, m := range t.Metrics.Flat() {
			if _, err := fmt.Fprintf(w, "    %-28s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64)); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// f3 formats a float with three significant-ish decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// g3 formats a float compactly.
func g3(v float64) string { return fmt.Sprintf("%.3g", v) }

// Runner is the registry entry for one experiment. Run threads the
// caller's context through the harness so -serve and remote invocations
// can cancel mid-sweep; harnesses must not mint their own root context
// (enforced by repolint's ctxbackground analyzer).
type Runner struct {
	ID   string
	Desc string
	Run  func(ctx context.Context, seed int64, quick bool) (*Table, error)
}

// RunInstrumented runs the experiment with the default obs registry
// enabled and returns, alongside the table, the metric delta attributable
// to this run (also attached to the table's Metrics footer). The previous
// enabled state of the registry is restored afterwards. Experiments share
// one global registry, so concurrent RunInstrumented calls attribute each
// other's work; run experiments sequentially when metrics matter.
func (r Runner) RunInstrumented(ctx context.Context, seed int64, quick bool) (*Table, obs.Snapshot, error) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	before := reg.Snapshot()
	t, err := r.Run(ctx, seed, quick)
	delta := reg.Snapshot().Delta(before)
	if t != nil {
		t.Metrics = delta
	}
	return t, delta, err
}

// All returns every registered experiment in order.
func All() []Runner {
	return []Runner{
		{"E01", "exhaustive reconstruction (Thm 1.1(i))", E01Exhaustive},
		{"E02", "LP-decoding reconstruction and the √n crossover (Thm 1.1(ii))", E02LPReconstruction},
		{"E03", "Laplace mechanism: privacy and accuracy (Thm 1.3)", E03LaplaceDP},
		{"E04", "birthday isolation worked example (§2.2)", E04BirthdayIsolation},
		{"E05", "isolation probability curve n·w·(1-w)^(n-1) (§2.2)", E05IsolationCurve},
		{"E06", "count mechanism prevents PSO (Thm 2.5)", E06CountPSOSecurity},
		{"E07", "PSO security robust to post-processing (Thm 2.6)", E07PostProcessing},
		{"E08", "composition of counts enables PSO (Thm 2.8)", E08CompositionAttack},
		{"E09", "differential privacy prevents PSO (Thm 2.9)", E09DPPSOSecurity},
		{"E10", "k-anonymity enables PSO at ≈37% (Thm 2.10)", E10KAnonPSOAttack},
		{"E11", "census reconstruction and re-identification (§1)", E11CensusReconstruction},
		{"E12", "quasi-identifier uniqueness (Sweeney)", E12QuasiIDUniqueness},
		{"E13", "LP reconstruction of a Diffix-style system ([13])", E13DiffixReconstruction},
		{"E14", "k-anonymity fails to compose (§1.1)", E14KAnonComposition},
		{"E15", "Cohen-style corner attack approaches 100% ([12])", E15CohenStyleAttack},
		{"E16", "legal verdicts vs Article 29 Working Party (§2.4.3)", E16LegalVerdictTable},
		{"E17", "Homer-style membership inference and its DP collapse (§1)", E17MembershipInference},
		{"E18", "Netflix-style scoreboard de-anonymization (§1)", E18NetflixScoreboard},
		{"E19", "census disclosure-avoidance defenses (swapping vs DP)", E19CensusDefenses},
		{"A01", "ablation: LP decoding objective (L1 vs Chebyshev)", A01LPObjective},
		{"A02", "ablation: prefix-descent arity", A02PrefixArity},
		{"A03", "ablation: Mondrian split policy", A03MondrianSplit},
		{"A04", "ablation: cardinality encoding", A04CardinalityEncoding},
		{"A05", "ablation: integer noise (geometric vs Laplace)", A05IntegerNoise},
		{"A06", "ablation: full-domain greedy vs lattice-optimal", A06FullDomainSearch},
		{"E02.stream", "anytime LP reconstruction: queries to each accuracy milestone (Thm 1.1)", E02Stream},
		{"E11.stream", "anytime census reconstruction: table cells to each exact-fraction milestone (§1)", E11StreamConverge},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}
