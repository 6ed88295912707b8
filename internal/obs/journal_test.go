package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	snap := Snapshot{Counters: map[string]int64{"query.count": 42}}
	events := []Event{
		{Phase: "run_start", Seed: 7, Quick: true},
		{Phase: "experiment", ID: "E02", Seed: 7, Quick: true, Seconds: 0.5,
			Sizes: map[string]int{"rows": 12}, Metrics: &snap},
		{Phase: "experiment", ID: "E11", Seed: 7, Quick: true, Error: "boom"},
		{Phase: "run_end", Seed: 7, Quick: true, Seconds: 1.25},
	}
	for _, e := range events {
		if err := j.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if j.Events() != len(events) {
		t.Errorf("Events = %d", j.Events())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(events) {
		t.Fatalf("journal has %d lines, want %d", lines, len(events))
	}

	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events", len(got))
	}
	if got[0].Time == "" {
		t.Error("Emit must stamp Time")
	}
	e := got[1]
	if e.ID != "E02" || e.Sizes["rows"] != 12 || e.Metrics == nil || e.Metrics.Counters["query.count"] != 42 {
		t.Errorf("experiment event mangled: %+v", e)
	}
	if got[2].Error != "boom" {
		t.Errorf("error event mangled: %+v", got[2])
	}
}

func TestSummarizeEventsAndWriteFile(t *testing.T) {
	snap := Snapshot{Counters: map[string]int64{"lp.pivots": 900}}
	events := []Event{
		{Phase: "run_start", Time: "2026-08-05T00:00:00Z", Seed: 3, Quick: true},
		{Phase: "experiment", ID: "E02", Seconds: 1.5, Metrics: &snap},
		{Phase: "experiment", ID: "E11", Seconds: 0.5, Error: "nope"},
		{Phase: "run_end"},
	}
	sum := SummarizeEvents("abc123abc123", events)
	if sum.Seed != 3 || !sum.Quick || sum.Rev != "abc123abc123" {
		t.Errorf("summary header: %+v", sum)
	}
	if len(sum.Experiments) != 2 || sum.TotalSeconds != 2 {
		t.Errorf("summary body: %+v", sum)
	}
	if sum.Experiments[0].Counters["lp.pivots"] != 900 {
		t.Errorf("counters not carried: %+v", sum.Experiments[0])
	}
	if sum.Experiments[1].Error != "nope" {
		t.Errorf("error not carried: %+v", sum.Experiments[1])
	}

	dir := t.TempDir()
	path, err := sum.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_abc123abc123.json" {
		t.Errorf("path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rev"`, `"E02"`, `"lp.pivots"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("summary file missing %s", want)
		}
	}

	// A hostile rev must not escape the directory.
	if p, err := (BenchSummary{Rev: "../weird rev"}).WriteFile(dir); err != nil {
		t.Fatal(err)
	} else if filepath.Dir(p) != dir || strings.ContainsAny(filepath.Base(p), "/ ") {
		t.Errorf("unsanitized path %s", p)
	}
}

// TestWriteBenchSummaryBesideJournal: the BENCH writer the cmd tools
// share folds a finished journal file into a summary in the same
// directory.
func TestWriteBenchSummaryBesideJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	f, err := os.Create(journal)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(f)
	pivots := Snapshot{Counters: map[string]int64{"lp.pivots": 7}}
	for _, e := range []Event{
		{Phase: "run_start", Seed: 5, Quick: true},
		{Phase: "experiment", ID: "E02", Seconds: 0.25, Metrics: &pivots},
	} {
		if err := j.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	path, err := WriteBenchSummary(journal)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.HasPrefix(filepath.Base(path), "BENCH_") {
		t.Errorf("summary written to %s, want BENCH_<rev>.json in %s", path, dir)
	}
	sum, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Seed != 5 || len(sum.Experiments) != 1 || sum.Experiments[0].Counters["lp.pivots"] != 7 {
		t.Errorf("summary = %+v", sum)
	}
	if _, err := WriteBenchSummary(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("a missing journal should fail")
	}
}

func TestGitRev(t *testing.T) {
	dir := t.TempDir()
	git := filepath.Join(dir, ".git")
	if err := os.MkdirAll(filepath.Join(git, "refs", "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	hash := "0123456789abcdef0123456789abcdef01234567"

	// Detached HEAD.
	os.WriteFile(filepath.Join(git, "HEAD"), []byte(hash+"\n"), 0o644)
	if got := GitRev(dir); got != hash[:12] {
		t.Errorf("detached rev = %q", got)
	}

	// Symbolic ref to a loose ref file, resolved from a subdirectory.
	os.WriteFile(filepath.Join(git, "HEAD"), []byte("ref: refs/heads/main\n"), 0o644)
	os.WriteFile(filepath.Join(git, "refs", "heads", "main"), []byte(hash+"\n"), 0o644)
	sub := filepath.Join(dir, "a", "b")
	os.MkdirAll(sub, 0o755)
	if got := GitRev(sub); got != hash[:12] {
		t.Errorf("loose-ref rev = %q", got)
	}

	// Packed ref fallback.
	os.Remove(filepath.Join(git, "refs", "heads", "main"))
	packed := "# pack-refs with: peeled fully-peeled sorted\n" + hash + " refs/heads/main\n"
	os.WriteFile(filepath.Join(git, "packed-refs"), []byte(packed), 0o644)
	if got := GitRev(dir); got != hash[:12] {
		t.Errorf("packed-ref rev = %q", got)
	}

	// No repository at all.
	if got := GitRev(filepath.Join(os.TempDir(), "definitely", "not", "a", "repo")); got != "unknown" {
		t.Errorf("no-repo rev = %q", got)
	}
}

// TestJournalSubscribe pins the live-tail contract serve's SSE endpoint
// relies on: replay of retained events, gap-free handoff to the live
// channel, non-blocking drops for slow subscribers, and a close-once
// cancel that survives later emits.
func TestJournalSubscribe(t *testing.T) {
	j := NewJournal(io.Discard)
	if err := j.Emit(Event{Phase: "run_start", Seed: 1}); err != nil {
		t.Fatal(err)
	}

	replay, ch, cancel := j.Subscribe(4)
	if len(replay) != 1 || replay[0].Phase != "run_start" {
		t.Fatalf("replay = %+v", replay)
	}
	if err := j.Emit(Event{Phase: "experiment", ID: "E05"}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-ch:
		if e.ID != "E05" {
			t.Errorf("live event = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("live event never arrived")
	}

	// A full subscriber buffer drops events rather than blocking Emit.
	_, slow, cancelSlow := j.Subscribe(1)
	for i := 0; i < 5; i++ {
		if err := j.Emit(Event{Phase: "experiment", ID: "flood"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(slow); got != 1 {
		t.Errorf("slow subscriber buffered %d events, want 1 (rest dropped)", got)
	}
	cancelSlow()

	cancel()
	cancel() // idempotent
	// Drain anything buffered before cancel; the channel must end closed
	// (this loop would hang forever otherwise).
	for range ch {
	}
	if err := j.Emit(Event{Phase: "run_end"}); err != nil {
		t.Fatal(err) // must not panic on the closed channel
	}
}
