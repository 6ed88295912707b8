package serve

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/par"
)

// newTool builds a Tool from command-line-style args.
func newTool(t *testing.T, args ...string) *Tool {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tool := AddToolFlags(fs, "test")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tool
}

// TestToolFullLifecycle drives the shared cmd plumbing end to end:
// -metrics + -serve + -spans together, a pooled run in the middle, then
// Close, checking every artifact the flags promise.
func TestToolFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "run.jsonl")
	spansPath := filepath.Join(dir, "run.trace.json")
	tool := newTool(t, "-metrics", journalPath, "-serve", "127.0.0.1:0", "-spans", spansPath)

	wasEnabled := obs.Default().Enabled()
	defer obs.Default().SetEnabled(wasEnabled)
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	if !tool.Observing() {
		t.Fatal("tool with -metrics must be observing")
	}
	if !obs.Default().Enabled() {
		t.Error("Start must enable the default registry for -metrics")
	}

	tool.Emit(obs.Event{Phase: "run_start", Seed: 2, Quick: true})
	tool.SetPhase("E01")
	if err := par.ForEach(2, 8, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tool.Emit(obs.Event{Phase: "run_end", Seed: 2, Quick: true})

	resp, err := http.Get("http://" + tool.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Phase != "E01" || h.JournalEvents != 2 {
		t.Errorf("healthz during run = %+v", h)
	}

	if err := tool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tool.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}

	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(f)
	f.Close()
	if err != nil || len(events) != 2 {
		t.Fatalf("journal events = %d (%v), want 2", len(events), err)
	}

	data, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("span file is not Chrome trace JSON: %v", err)
	}
	items, lanes := 0, map[int]bool{}
	for _, e := range trace.TraceEvents {
		if e.Cat == "par.item" {
			items++
			lanes[e.TID] = true
		}
	}
	if items != 8 {
		t.Errorf("trace item events = %d, want 8", items)
	}
	if len(lanes) == 0 || len(lanes) > 2 {
		t.Errorf("trace worker lanes = %d, want 1-2", len(lanes))
	}
}

// TestToolServeOnlyStreamsJournal: -serve without -metrics still exposes a
// live SSE journal (backed by a discard writer) and /metrics.
func TestToolServeOnlyStreamsJournal(t *testing.T) {
	tool := newTool(t, "-serve", "127.0.0.1:0")
	wasEnabled := obs.Default().Enabled()
	defer obs.Default().SetEnabled(wasEnabled)
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	defer tool.Close() //nolint:errcheck
	if !tool.Observing() {
		t.Error("-serve alone must still create a journal for the SSE tail")
	}
	tool.Emit(obs.Event{Phase: "run_start", Seed: 1})
	resp, err := http.Get("http://" + tool.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	json.NewDecoder(resp.Body).Decode(&h) //nolint:errcheck
	resp.Body.Close()
	if h.JournalEvents != 1 {
		t.Errorf("journal events over discard writer = %d, want 1", h.JournalEvents)
	}
}

func TestToolNoFlagsIsNoop(t *testing.T) {
	tool := newTool(t)
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	if tool.Observing() || tool.Addr() != "" {
		t.Error("flagless tool must not observe or serve")
	}
	tool.Emit(obs.Event{Phase: "run_start"}) // must not panic
	tool.SetPhase("x")                       // must not panic
	if err := tool.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestToolStartFailureUnwinds(t *testing.T) {
	dir := t.TempDir()
	tool := newTool(t, "-metrics", filepath.Join(dir, "missing-subdir", "run.jsonl"))
	err := tool.Start()
	if err == nil {
		t.Fatal("Start must fail for an uncreatable journal path")
	}
	if !strings.Contains(err.Error(), "metrics journal") {
		t.Errorf("error %q does not name the journal stage", err)
	}
}
