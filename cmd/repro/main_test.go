package main

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"singlingout/internal/experiments"
	"singlingout/internal/obs/serve"
)

// TestUnknownIDListsExperiments: an unknown -id lists every valid id with
// its description on stderr and fails before the run starts, so the
// journal stays empty.
func TestUnknownIDListsExperiments(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	tool := serve.AddToolFlags(fs, "repro")
	if err := fs.Parse([]string{"-metrics", journal}); err != nil {
		t.Fatal(err)
	}
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}

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
