package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"singlingout/internal/experiments"
	"singlingout/internal/obs"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
	"singlingout/internal/synth"
)

// runCLI runs reconstruct with args and returns its status and output.
// It resets the default curve set first: a curve's x must strictly
// increase, so a second streamed run in one process would panic.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	obs.DefaultCurves().Reset()
	var stdout, stderr bytes.Buffer
	status := run(args, &stdout, &stderr)
	return status, stdout.String(), stderr.String()
}

// qserver serves a fresh query service over the dataset (n = 48, seed 42,
// p = 0.5) with the given per-analyst budget (0 = unlimited).
func qserver(t *testing.T, budget int) string {
	t.Helper()
	srv, err := remote.NewServer(remote.ServerConfig{N: 48, Seed: 42, P: 0.5, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return ts.URL
}

// TestUsageErrorsExit2: without -stream or -remote, and with an attack
// -stream cannot run, reconstruct exits 2 before any attack starts.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-attack", "lp"}, "repro -quick -id E02"},
		{[]string{"-stream", "-attack", "diffix"}, `"diffix"`},
	} {
		status, stdout, stderr := runCLI(t, tc.args...)
		if status != 2 || stdout != "" {
			t.Errorf("%v: status %d, stdout %q; want 2 and no output", tc.args, status, stdout)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr does not mention %s:\n%s", tc.args, tc.want, stderr)
		}
	}
}

// TestStreamLPPrintsHarnessTable: -stream -attack lp prints the table of
// E02StreamOverOracle over the same exact oracle, and with -metrics
// journals run_start, one attack.converge event per chunk, one
// experiment event and run_end.
func TestStreamLPPrintsHarnessTable(t *testing.T) {
	x := synth.BinaryDataset(rand.New(rand.NewSource(1)), 48, 0.5)
	want, _, err := experiments.E02StreamOverOracle(context.Background(), &query.Exact{X: x}, x, 1, 24, obs.NewCurveSet())
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	for _, extra := range [][]string{nil, {"-metrics", journal}} {
		status, stdout, stderr := runCLI(t, append([]string{"-stream", "-attack", "lp", "-chunk", "24"}, extra...)...)
		if status != 0 {
			t.Fatalf("%v: status %d: %s", extra, status, stderr)
		}
		if stdout != want.String() {
			t.Errorf("%v: stdout:\n%s\nwant:\n%s", extra, stdout, want)
		}
	}

	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 192 / 24
	if len(events) != chunks+3 {
		t.Fatalf("journal has %d events, want %d", len(events), chunks+3)
	}
	if e := events[0]; e.Phase != "run_start" || e.Sizes["experiments"] != 1 {
		t.Errorf("first event = %+v, want run_start of 1 experiment", e)
	}
	for i, e := range events[1 : chunks+1] {
		if e.Phase != "attack.converge" || e.Curve == nil || e.Curve.X != int64(24*(i+1)) {
			t.Errorf("event %d = %+v, want attack.converge at x=%d", i+1, e, 24*(i+1))
		}
	}
	if e := events[chunks+1]; e.Phase != "experiment" || e.ID != "E02.stream" || e.Error != "" ||
		e.Metrics == nil || e.Metrics.Counters[query.MetricQueries] != 192 {
		t.Errorf("experiment event = %+v, want E02.stream with 192 queries", e)
	}
	if e := events[chunks+2]; e.Phase != "run_end" || e.Sizes["experiments"] != 1 {
		t.Errorf("last event = %+v, want run_end", e)
	}
}

// TestRemoteMatchesInProcess: -remote against a live query service prints
// the tables the same harnesses print over an in-process exact oracle on
// the service's dataset, with and without -stream.
func TestRemoteMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	truth := remote.Dataset(42, 48, 0.5)
	sweep, err := experiments.E02OverOracle(ctx, &query.Exact{X: truth}, truth, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := experiments.E02StreamOverOracle(ctx, &query.Exact{X: truth}, truth, 1, 24, obs.NewCurveSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want *experiments.Table
	}{
		{nil, sweep},
		{[]string{"-stream", "-chunk", "24"}, stream},
	} {
		status, stdout, stderr := runCLI(t, append([]string{"-remote", qserver(t, 0)}, tc.args...)...)
		if status != 0 {
			t.Fatalf("%v: status %d: %s", tc.args, status, stderr)
		}
		if stdout != tc.want.String() {
			t.Errorf("%v: stdout:\n%s\nwant:\n%s", tc.args, stdout, tc.want)
		}
	}
}

func TestRemoteBudgetDefenseHeld(t *testing.T) {
	status, stdout, stderr := runCLI(t, "-remote", qserver(t, 60))
	if status != 1 {
		t.Errorf("status = %d, want 1", status)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want no table", stdout)
	}
	if !strings.Contains(stderr, "budget ran out mid-attack — the defense held") {
		t.Errorf("stderr lacks the defense-held line:\n%s", stderr)
	}
}
