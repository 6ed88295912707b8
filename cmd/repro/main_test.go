package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"singlingout/internal/experiments"
	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
)

// startTool parses args as repro's observability flags and starts them.
func startTool(t *testing.T, args ...string) *serve.Tool {
	t.Helper()
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	tool := serve.AddToolFlags(fs, "repro")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	return tool
}

// TestUnknownIDListsExperiments: an unknown -id lists every valid id with
// its description on stderr and fails before the run starts, so the
// journal stays empty.
func TestUnknownIDListsExperiments(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	tool := startTool(t, "-metrics", journal)

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	status := run(context.Background(), tool, 1, true, "BOGUS")
	os.Stderr = stderr
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}

	if status != 1 {
		t.Errorf("run -id BOGUS returned %d, want 1", status)
	}
	if !strings.Contains(string(out), `unknown experiment "BOGUS"`) {
		t.Errorf("stderr does not name the bad id:\n%s", out)
	}
	for _, e := range experiments.All() {
		if !strings.Contains(string(out), e.ID+"  "+e.Desc+"\n") {
			t.Errorf("stderr does not list %s with its description:\n%s", e.ID, out)
		}
	}
	if b, err := os.ReadFile(journal); err != nil || len(b) != 0 {
		t.Errorf("journal after a refused id = %q, %v; want empty", b, err)
	}
}

// TestMetricsJournal drives the instrumented loop end to end: -id E01
// -metrics journals one run_start, one E01 experiment event whose
// counters equal E01's row of the experiments' counter file, and one
// run_end, and writes nothing beside the journal.
func TestMetricsJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	tool := startTool(t, "-metrics", journal)
	status := run(context.Background(), tool, 1, true, "E01")
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
	if status != 0 {
		t.Fatalf("run -id E01 returned %d, want 0", status)
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
	var phases []string
	for _, e := range events {
		phases = append(phases, e.Phase+" "+e.ID)
	}
	if want := []string{"run_start ", "experiment E01", "run_end "}; strings.Join(phases, "|") != strings.Join(want, "|") {
		t.Fatalf("journal events = %q, want %q", phases, want)
	}

	data, err := os.ReadFile("../../internal/experiments/testdata/quick_counters.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		ID       string
		Counters map[string]int64
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	var want map[string]int64
	for _, row := range rows {
		if row.ID == "E01" {
			want = row.Counters
		}
	}
	if got := events[1].Metrics; want == nil || got == nil || !maps.Equal(got.Counters, want) {
		t.Errorf("E01 event metrics = %+v, want counters %v", got, want)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("files beside the journal: %q, want only run.jsonl", names)
	}
}
