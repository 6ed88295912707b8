// Command benchdiff compares two BENCH_<rev>.json performance summaries
// (as written by cmd/repro -metrics), prints a per-experiment delta table
// — wall-clock seconds plus every work counter that moved (oracle
// queries, simplex pivots, SAT propagations, PSO weight draws, ...) — and
// gates on one rule: the new summary must hold exactly the baseline's
// rows, each with the baseline's error text and exactly its counters.
//
// Usage:
//
//	benchdiff BENCH_base.json BENCH_new.json
//
// It exits 1 when the rule breaks, listing each breach by row and counter
// on stderr, and 2 on a usage or read error. It takes no flags. Seconds
// are printed but never gated: one run's wall clock on a shared host says
// little, while at one seed a row's counters repeat exactly, so a moved
// counter is a change in the work the code does. Speed is measured by the
// bench/ benchmark against the parent commit. The Makefile's benchgate
// target runs this against the committed BENCH_baseline.json.
package main

import (
	"flag"
	"fmt"
	"os"

	"singlingout/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BENCH_base.json BENCH_new.json")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := obs.ReadBenchFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := obs.ReadBenchFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	diff := obs.DiffBench(base, cur)
	if err := diff.Fprint(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if violations := diff.Violations(); len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d difference(s) from the baseline's rows, errors and work counters:\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("gate ok: all %d baseline rows present with the same errors and work counters\n", len(base.Experiments))
}
