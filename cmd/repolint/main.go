// Command repolint runs the repository's invariant-checking suite
// (internal/analysis) over go-style package patterns and exits non-zero
// on any finding. It is the mechanical enforcement of the determinism,
// sentinel-error, ctx-propagation, metric-naming, bounded-concurrency,
// and privacy-dataflow rules the benchmarks and the serving stack depend
// on; see docs/INVARIANTS.md.
//
// Usage:
//
//	repolint [-suppressed] [patterns...]
//
// Patterns default to ./... resolved against the enclosing module.
// Findings print as file:line:col: message (analyzer), sorted by
// position so the output is byte-deterministic. Suppressions use
// //lint:ignore <analyzer> <reason> on the offending line or the line
// above; -suppressed shows what they hide. A directive missing its
// reason is a finding, and so is each analyzer it names that reported
// nothing on the directive's line or the next.
//
// Exit status: 0 when no unsuppressed finding remains, 1 when one does,
// 2 on a usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"singlingout/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	showSuppressed := fs.Bool("suppressed", false, "also print findings hidden by lint:ignore directives")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}
	root, modPath, err := analysis.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(root, modPath, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}
	diags, err := analysis.RunAll(analysis.All(), pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}

	findings, suppressed := 0, 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			if *showSuppressed {
				fmt.Fprintf(stdout, "%s [suppressed]\n", d)
			}
			continue
		}
		findings++
		fmt.Fprintln(stdout, d)
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s) across %d package(s)\n", findings, len(pkgs))
		return 1
	}
	if suppressed > 0 && !*showSuppressed {
		fmt.Fprintf(stderr, "repolint: clean (%d suppressed by lint:ignore; rerun with -suppressed to view)\n", suppressed)
	}
	return 0
}
