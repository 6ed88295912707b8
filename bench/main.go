// Command bench is the repository's benchmark: six workloads drawn from
// the paper's attack families and the budgeted query service, each run in
// its own process for a fixed wall-clock time, with end-to-end metrics from
// an untraced run and per-layer metrics from a traced one. Every run checks
// the outputs it measured. See README.md for the workloads, the metrics and
// how a change claims a gain.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload all|NAME] [-seed 1] [-seconds 10] [-trace 0|1]
//
// One workload prints a provenance header, one line per metric and, as its
// last line, a JSON object {"correct", "attempted", "failed", "metrics"}.
// -workload all (the default) runs every workload in its own subprocess of
// this binary. -trace 1 reports the per-layer metrics instead of the
// end-to-end ones and writes a Perfetto trace, a CPU profile and a layer
// table per workload under <build-dir>/trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"singlingout/internal/obs"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "wall-clock seconds of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, trace, profile and layer table")
	buildDir := fs.String("build-dir", ".bench_build", "directory for scratch files and traced-run output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "bench: warning: nproc = %d; the workloads run two-way parallel load and their times will not compare with a 2-CPU host\n", runtime.NumCPU())
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(specNames(), ", "))
		return 2
	}
	o := options{
		seed:        *seed,
		seconds:     *seconds,
		trace:       *trace == 1,
		dir:         *buildDir,
		setups:      minSetups,
		setupBudget: setupBudget,
		sizes:       defaultSizes(),
	}
	fmt.Fprintln(stdout, provenance(sp.name, o))
	res, err := measure(sp, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
		return 1
	}
	printResult(stdout, res)
	if len(res.failedChecks) > 0 {
		for _, c := range res.failedChecks {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", sp.name, c)
		}
		return 1
	}
	return 0
}

// provenance is the header line of every run: what was measured, where,
// and under which settings the numbers were taken.
func provenance(workload string, o options) string {
	rev := "unknown"
	// Look for the revision only in the working directory itself: the
	// benchmark reads nothing outside its checkout.
	if fi, err := os.Stat(".git"); err == nil && fi.IsDir() {
		rev = obs.GitRev(".")
	}
	return fmt.Sprintf("# bench workload=%s rev=%s go=%s nproc=%d gomaxprocs=%d seed=%d seconds=%g trace=%t wal_flush=%s",
		workload, rev, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.seconds, o.trace, walFlush)
}

// printResult writes one line per metric and then the result object as the
// last line of standard output.
func printResult(w io.Writer, res result) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, line := range res.notes {
		fmt.Fprintln(w, "# "+line)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.failedChecks) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		// Every value is a finite float64; Marshal cannot fail on them.
		panic(err)
	}
	fmt.Fprintln(w, string(out))
}

// runAll re-executes this binary once per workload, so each workload gets
// a fresh process: heap, GC state and peak RSS do not leak between them.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	self, err = filepath.EvalSymlinks(self)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, sp := range specs {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", sp.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", sp.name, err)
			code = 1
		}
	}
	return code
}
