package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
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

// TestMetricsJournal drives the instrumented loop end to end: -id X
// -metrics journals one run_start, X's convergence points if it is an
// anytime attack, one X experiment event whose counters equal X's row of
// the experiments' counter file, and one run_end, and writes nothing
// beside the journal. E02.stream's 16 points sit at x = 16, 32, …, 256
// queries, and its event counts those 256 queries. With -serve, GET
// /converge returns the same points, read back from the journal.
func TestMetricsJournal(t *testing.T) {
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
	for _, tc := range []struct {
		id      string
		points  int // attack.converge events, x = 16·i
		queries int64
	}{
		{"E01", 0, 2520},
		{"E02.stream", 16, 256},
	} {
		t.Run(tc.id, func(t *testing.T) {
			dir := t.TempDir()
			journal := filepath.Join(dir, "run.jsonl")
			tool := startTool(t, "-metrics", journal, "-serve", "127.0.0.1:0")
			status := run(context.Background(), tool, 1, true, tc.id)
			resp, err := http.Get("http://" + tool.Addr() + "/converge")
			if err != nil {
				t.Fatal(err)
			}
			var converge struct{ Curves map[string][]obs.CurvePoint }
			err = json.NewDecoder(resp.Body).Decode(&converge)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := tool.Close(); err != nil {
				t.Fatal(err)
			}
			if status != 0 {
				t.Fatalf("run -id %s returned %d, want 0", tc.id, status)
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
			var phases, want []string
			for _, e := range events {
				phase := e.Phase + " " + e.ID
				if e.Curve != nil {
					phase = fmt.Sprintf("%s %s x=%d", e.Phase, e.Curve.Name, e.Curve.X)
				}
				phases = append(phases, phase)
			}
			want = append(want, "run_start ")
			for i := 1; i <= tc.points; i++ {
				want = append(want, fmt.Sprintf("attack.converge recon.lp.accuracy x=%d", 16*i))
			}
			want = append(want, "experiment "+tc.id, "run_end ")
			if strings.Join(phases, "|") != strings.Join(want, "|") {
				t.Fatalf("journal events = %q, want %q", phases, want)
			}
			var served []string
			for name, pts := range converge.Curves {
				for _, p := range pts {
					served = append(served, fmt.Sprintf("attack.converge %s x=%d", name, p.X))
				}
			}
			if points := want[1 : 1+tc.points]; strings.Join(served, "|") != strings.Join(points, "|") {
				t.Errorf("GET /converge = %q, want %q", served, points)
			}

			var counters map[string]int64
			for _, row := range rows {
				if row.ID == tc.id {
					counters = row.Counters
				}
			}
			got := events[len(events)-2].Metrics
			if counters == nil || got == nil || !maps.Equal(got.Counters, counters) {
				t.Errorf("%s event metrics = %+v, want counters %v", tc.id, got, counters)
			} else if q := got.Counters["query.count"]; q != tc.queries {
				t.Errorf("%s event query.count = %d, want %d", tc.id, q, tc.queries)
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
		})
	}
}
