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

// TestOverloadInjectionSheds drives a deliberately undersized sharded
// server (one active slot per shard, no waiting room, injected service
// time) with concurrent analysts: requests must be shed, the run must
// still exit 0 with a replay-clean ledger (shedding never corrupts
// budget accounting), and the shed count must reach the bench summary as
// the qserver.shed counter of its BENCH.qserver.load row.
func TestOverloadInjectionSheds(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "loadgen.jsonl")
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
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("bench summary files = %v (err %v), want exactly one", matches, err)
	}
	sum, err := obs.ReadBenchFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var load *obs.BenchEntry
	for i, e := range sum.Experiments {
		if e.ID == "BENCH.qserver.load" {
			load = &sum.Experiments[i]
		}
	}
	if load == nil {
		t.Fatalf("bench summary has no BENCH.qserver.load row: %+v", sum.Experiments)
	}
	if load.Counters[remote.MetricShed] <= 0 {
		t.Errorf("BENCH.qserver.load counters %v: want %s > 0", load.Counters, remote.MetricShed)
	}
}

// TestBenchRowsWritten checks -metrics produces a journal and a
// BENCH_<rev>.json summary carrying the BENCH.qserver.* rows the CI gate
// requires.
func TestBenchRowsWritten(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "loadgen.jsonl")
	args := []string{"-analysts", "2", "-requests", "4", "-batch", "4",
		"-metrics", journal}
	var out bytes.Buffer
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("bench summary files = %v (err %v), want exactly one", matches, err)
	}
	sum, err := obs.ReadBenchFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range sum.Experiments {
		got[e.ID] = true
		if e.Error != "" {
			t.Errorf("row %s carries error %q", e.ID, e.Error)
		}
	}
	for _, id := range []string{"BENCH.qserver.load", "BENCH.qserver.p50", "BENCH.qserver.p99"} {
		if !got[id] {
			t.Errorf("bench summary missing row %s (have %v)", id, got)
		}
	}
}
