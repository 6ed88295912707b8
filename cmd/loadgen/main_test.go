package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/query/remote"
)

// TestTwoRunStdoutInvariance pins the determinism contract: at
// -concurrency 1 the whole stdout — workload table and ledger summary —
// is byte-identical across runs (latency and throughput go to stderr
// precisely so this holds).
func TestTwoRunStdoutInvariance(t *testing.T) {
	args := []string{"-analysts", "3", "-requests", "8", "-batch", "4",
		"-pool", "32", "-budget", "20", "-concurrency", "1", "-seed", "7"}
	var out1, out2 bytes.Buffer
	if code := run(args, &out1, io.Discard); code != 0 {
		t.Fatalf("first run exited %d", code)
	}
	if code := run(args, &out2, io.Discard); code != 0 {
		t.Fatalf("second run exited %d", code)
	}
	if out1.Len() == 0 {
		t.Fatal("no stdout produced")
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Errorf("stdout differs between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", out1.String(), out2.String())
	}
	for _, want := range []string{"loadgen workload:", "ledger (budget=20", "replay ok"} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out1.String())
		}
	}
}

// TestBudgetDenialsSurface checks an over-tight budget shows up as deny
// rows in the ledger summary rather than failing the run.
func TestBudgetDenialsSurface(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-analysts", "2", "-requests", "6", "-batch", "8",
		"-budget", "10", "-concurrency", "1", "-seed", "42"}
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	// With budget 10 and 8-query batches every analyst overruns, so the
	// ledger summary must show deny-op cost and each net total must be
	// capped at the budget.
	lines := strings.Split(out.String(), "\n")
	ledgerAt := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "ledger (budget=10") {
			ledgerAt = i
		}
	}
	if ledgerAt < 0 {
		t.Fatalf("no ledger summary:\n%s", out.String())
	}
	deniedTotal := 0
	for _, line := range lines[ledgerAt+2:] {
		fields := strings.Fields(line)
		if len(fields) != 5 {
			continue
		}
		var spent, refunded, denied, net int
		if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d %d", &spent, &refunded, &denied, &net); err != nil {
			t.Fatalf("unparseable ledger row %q: %v", line, err)
		}
		deniedTotal += denied
		if net > 10 {
			t.Errorf("analyst %s net %d exceeds budget 10", fields[0], net)
		}
	}
	if deniedTotal == 0 {
		t.Errorf("expected budget denials in:\n%s", out.String())
	}
}

// TestOverloadInjectionSheds drives a deliberately undersized server
// (two cache shards, one active slot for the whole server, no waiting
// room, injected service time) with concurrent analysts: requests must
// be shed, counted in the qserver.shed counter, and the run must still
// exit 0 with a replay-clean ledger (shedding never corrupts budget
// accounting).
func TestOverloadInjectionSheds(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "loadgen.jsonl")
	args := []string{"-analysts", "4", "-requests", "6", "-batch", "4",
		"-shards", "2", "-max-concurrent", "1", "-queue-depth", "-1",
		"-inject-delay", "10ms", "-concurrency", "4", "-metrics", journal}
	before := obs.Default().Snapshot()
	var out bytes.Buffer
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	delta := obs.Default().Snapshot().Delta(before)
	if delta.Counters[remote.MetricShed] == 0 {
		t.Error("no requests shed under injected overload")
	}
	if !strings.Contains(out.String(), "replay ok") {
		t.Errorf("ledger did not replay cleanly under overload:\n%s", out.String())
	}
}
