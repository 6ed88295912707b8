package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"singlingout/internal/experiments"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

// runCLI runs reconstruct with args and returns its status and output.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
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

// TestUsageErrorsExit2: without -remote, and with a flag reconstruct no
// longer has, it exits 2 before any attack starts.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "repro -quick -id E02.stream"},
		{[]string{"-stream"}, "repro -quick -id E02.stream"},
		{[]string{"-remote", "http://127.0.0.1:1", "-chunk", "24"}, "-chunk"},
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
	stream, _, err := experiments.E02StreamOverOracle(ctx, &query.Exact{X: truth}, truth, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want *experiments.Table
	}{
		{nil, sweep},
		{[]string{"-stream"}, stream},
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
