package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestCurveJournalMirror: a point becomes one attack.converge event in
// the attached journal, which keeps it for the /converge views; the set
// itself keeps nothing, so a second run's points may start over at a
// lower x.
func TestCurveJournalMirror(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	cs := &CurveSet{}
	cs.SetJournal(j)
	c := cs.Curve("recon.lp.accuracy")
	c.AddStats(32, 0.75, map[string]int64{"chunk": 32})
	c.AddStats(16, 0.5, nil)
	if got := j.Recent(); len(got) != 2 || got[0].Curve.X != 32 || got[1].Curve.X != 16 {
		t.Errorf("retained events = %+v, want the points at x=32 and x=16", got)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("journal events = %d, want 2", len(events))
	}
	e := events[0]
	if e.Phase != "attack.converge" || e.ID != "recon.lp.accuracy" {
		t.Errorf("event = %+v", e)
	}
	if e.Curve == nil || e.Curve.Name != "recon.lp.accuracy" || e.Curve.X != 32 || e.Curve.Y != 0.75 || e.Curve.Stats["chunk"] != 32 {
		t.Errorf("event curve sample = %+v", e.Curve)
	}

	cs.SetJournal(nil)
	c.AddStats(64, 0.9, nil)
	if got := j.Events(); got != 2 {
		t.Errorf("journal events after detach = %d, want 2", got)
	}
}

func TestCurveTracerCounterLane(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(true)
	cs := &CurveSet{tracer: tr}
	cs.Curve("recon.lp.accuracy").AddStats(16, 0.5, nil)
	cs.Curve("recon.lp.accuracy").AddStats(32, 0.8, nil)

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("trace events = %d, want 2", len(events))
	}
	for i, e := range events {
		if e.Ph != "C" || e.Name != "recon.lp.accuracy" {
			t.Errorf("event %d = %+v, want Ph C counter", i, e)
		}
	}
	if v := events[1].Args["value"]; v != 0.8 {
		t.Errorf("counter value = %v, want 0.8", v)
	}

	// The counter lane must survive the Chrome trace export.
	var out strings.Builder
	if err := tr.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"ph":"C"`) {
		t.Errorf("Chrome trace export carries no counter events: %s", out.String())
	}
}

func TestJournalDroppedCounter(t *testing.T) {
	j := NewJournal(io.Discard)
	if got := j.Dropped(); got != 0 {
		t.Fatalf("fresh journal Dropped = %d", got)
	}
	_, slow, cancel := j.Subscribe(1)
	defer cancel()
	for i := 0; i < 5; i++ {
		if err := j.Emit(Event{Phase: "experiment", ID: "flood"}); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer of 1: the first event fills it, the remaining 4 drop.
	if got := j.Dropped(); got != 4 {
		t.Errorf("Dropped = %d, want 4", got)
	}
	if got := len(slow); got != 1 {
		t.Errorf("slow subscriber buffered %d events, want 1", got)
	}
	// The gap is detectable: emitted - received - buffered == dropped.
	if emitted := j.Events(); int64(emitted-len(slow)) != j.Dropped() {
		t.Errorf("gap arithmetic broken: emitted %d buffered %d dropped %d", emitted, len(slow), j.Dropped())
	}
}
