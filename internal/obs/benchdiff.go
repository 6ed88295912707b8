package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ReadBenchFile loads a BENCH_<rev>.json performance summary.
func ReadBenchFile(path string) (BenchSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchSummary{}, fmt.Errorf("obs: bench summary read: %w", err)
	}
	var b BenchSummary
	if err := json.Unmarshal(data, &b); err != nil {
		return BenchSummary{}, fmt.Errorf("obs: bench summary parse %s: %w", path, err)
	}
	return b, nil
}

// CounterDelta is one work counter that differs across two revisions. A
// counter one side does not carry reads 0 there: run journals record only
// counters that moved.
type CounterDelta struct {
	Name      string
	Base, New int64
}

// BenchDelta is the per-experiment comparison of two bench summaries. An
// experiment may exist in only one side (InBase/InNew).
type BenchDelta struct {
	ID            string
	InBase, InNew bool
	BaseSeconds   float64
	NewSeconds    float64
	BaseError     string
	NewError      string
	Counters      []CounterDelta // union of counter names, sorted; only entries that changed
}

// SecondsPct returns the wall-clock change in percent relative to the
// baseline (0 when the baseline is zero or a side is missing).
func (d BenchDelta) SecondsPct() float64 {
	if !d.InBase || !d.InNew || d.BaseSeconds == 0 {
		return 0
	}
	return 100 * (d.NewSeconds - d.BaseSeconds) / d.BaseSeconds
}

// BenchDiff is the full comparison of two BENCH_<rev>.json summaries — the
// unit cmd/benchdiff prints and gates on.
type BenchDiff struct {
	Base, New BenchSummary
	Rows      []BenchDelta
}

// DiffBench compares two bench summaries experiment by experiment:
// baseline order first, then experiments only present in the new summary.
// Duplicate ids keep their first occurrence.
func DiffBench(base, cur BenchSummary) BenchDiff {
	diff := BenchDiff{Base: base, New: cur}
	newByID := map[string]BenchEntry{}
	for _, e := range cur.Experiments {
		if _, ok := newByID[e.ID]; !ok {
			newByID[e.ID] = e
		}
	}
	seen := map[string]bool{}
	for _, b := range base.Experiments {
		if seen[b.ID] {
			continue
		}
		seen[b.ID] = true
		d := BenchDelta{ID: b.ID, InBase: true, BaseSeconds: b.Seconds, BaseError: b.Error}
		if n, ok := newByID[b.ID]; ok {
			d.InNew = true
			d.NewSeconds = n.Seconds
			d.NewError = n.Error
			d.Counters = diffCounters(b.Counters, n.Counters)
		}
		diff.Rows = append(diff.Rows, d)
	}
	for _, n := range cur.Experiments {
		if seen[n.ID] {
			continue
		}
		seen[n.ID] = true
		diff.Rows = append(diff.Rows, BenchDelta{
			ID: n.ID, InNew: true, NewSeconds: n.Seconds, NewError: n.Error,
			Counters: diffCounters(nil, n.Counters),
		})
	}
	return diff
}

// diffCounters returns the changed work counters across the union of both
// maps, name-sorted.
func diffCounters(base, cur map[string]int64) []CounterDelta {
	names := map[string]bool{}
	for name := range base {
		names[name] = true
	}
	for name := range cur {
		names[name] = true
	}
	var out []CounterDelta
	for name := range names {
		if base[name] != cur[name] {
			out = append(out, CounterDelta{Name: name, Base: base[name], New: cur[name]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fprint renders the delta table: one row per experiment with baseline and
// new wall-clock plus the percentage change (for reading; Violations never
// compares seconds), indented lines for every work counter that moved
// (oracle queries, simplex pivots, SAT propagations, ...), and a TOTAL row.
func (diff BenchDiff) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "benchdiff %s -> %s (base seed %d quick=%v, new seed %d quick=%v)\n",
		diff.Base.Rev, diff.New.Rev, diff.Base.Seed, diff.Base.Quick, diff.New.Seed, diff.New.Quick); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-28s %10s %10s %10s %9s\n", "experiment", "base s", "new s", "delta s", "delta %"); err != nil {
		return err
	}
	for _, d := range diff.Rows {
		var line string
		switch {
		case d.InBase && !d.InNew:
			line = fmt.Sprintf("  %-28s %10.3f %10s %10s %9s", d.ID, d.BaseSeconds, "-", "-", "gone")
		case !d.InBase && d.InNew:
			line = fmt.Sprintf("  %-28s %10s %10.3f %10s %9s", d.ID, "-", d.NewSeconds, "-", "new")
		default:
			line = fmt.Sprintf("  %-28s %10.3f %10.3f %+10.3f %+8.1f%%",
				d.ID, d.BaseSeconds, d.NewSeconds, d.NewSeconds-d.BaseSeconds, d.SecondsPct())
		}
		if d.BaseError != "" || d.NewError != "" {
			line += fmt.Sprintf("  [base err=%q new err=%q]", d.BaseError, d.NewError)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for _, c := range d.Counters {
			pct := ""
			if c.Base != 0 {
				pct = fmt.Sprintf(" (%+.1f%%)", 100*float64(c.New-c.Base)/float64(c.Base))
			}
			if _, err := fmt.Fprintf(w, "      %-26s %12d -> %-12d%s\n", c.Name, c.Base, c.New, pct); err != nil {
				return err
			}
		}
	}
	totalPct := 0.0
	if diff.Base.TotalSeconds > 0 {
		totalPct = 100 * (diff.New.TotalSeconds - diff.Base.TotalSeconds) / diff.Base.TotalSeconds
	}
	_, err := fmt.Fprintf(w, "  %-28s %10.3f %10.3f %+10.3f %+8.1f%%\n",
		"TOTAL", diff.Base.TotalSeconds, diff.New.TotalSeconds,
		diff.New.TotalSeconds-diff.Base.TotalSeconds, totalPct)
	return err
}

// Violations applies the regression rule and returns one line per breach,
// naming its row (and counter): the new summary must hold exactly the
// baseline's rows, each with the baseline's error text and exactly its
// work counters. Seconds are never compared; at one seed a quick-run
// row's counters do not depend on timing or worker count
// (docs/INVARIANTS.md), so a moved counter is a change in the work done.
func (diff BenchDiff) Violations() []string {
	var out []string
	for _, d := range diff.Rows {
		switch {
		case !d.InNew:
			out = append(out, d.ID+": baseline row missing from the new summary")
			continue
		case !d.InBase:
			out = append(out, d.ID+": row not in the baseline")
			continue
		case d.BaseError != d.NewError:
			out = append(out, fmt.Sprintf("%s: error %q -> %q", d.ID, d.BaseError, d.NewError))
		}
		for _, c := range d.Counters {
			out = append(out, fmt.Sprintf("%s: %s %d -> %d", d.ID, c.Name, c.Base, c.New))
		}
	}
	return out
}
