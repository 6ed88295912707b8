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
