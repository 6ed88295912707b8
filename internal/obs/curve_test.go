package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestCurveAddAndSnapshot(t *testing.T) {
	cs := NewCurveSet()
	c := cs.Curve("recon.lp.accuracy")
	c.Add(16, 0.55)
	c.AddStats(32, 0.80, map[string]int64{"chunk": 16})
	c.Add(48, 0.97)

	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	pts := cs.Snapshot()[c.Name()]
	if pts[1].X != 32 || pts[1].Y != 0.80 || pts[1].Stats["chunk"] != 16 {
		t.Errorf("point 1 = %+v", pts[1])
	}
	// Curve handles to the same name share the series.
	if got := cs.Curve("recon.lp.accuracy").Len(); got != 3 {
		t.Errorf("re-obtained curve Len = %d, want 3", got)
	}

	cs.Curve("census.exact_fraction").Add(1, 0.1)
	if names := cs.Names(); len(names) != 2 || names[0] != "recon.lp.accuracy" || names[1] != "census.exact_fraction" {
		t.Errorf("Names = %v", names)
	}
	snap := cs.Snapshot()
	if len(snap["recon.lp.accuracy"]) != 3 || len(snap["census.exact_fraction"]) != 1 {
		t.Errorf("Snapshot = %+v", snap)
	}
	// Snapshot is a copy: mutating it must not touch the set.
	snap["recon.lp.accuracy"][0].Y = -1
	if got := cs.Snapshot()[c.Name()][0].Y; got != 0.55 {
		t.Errorf("snapshot mutation leaked into the set: y = %v", got)
	}
}

func TestCurveMonotonePanics(t *testing.T) {
	c := NewCurveSet().Curve("recon.lp.accuracy")
	c.Add(10, 0.5)
	for _, x := range []int64{10, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) after x=10 did not panic", x)
				}
			}()
			c.Add(x, 0.6)
		}()
	}
	// The offending point must not have been recorded.
	if got := c.Len(); got != 1 {
		t.Errorf("Len after rejected points = %d, want 1", got)
	}
}

func TestCurveJournalMirror(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	cs := NewCurveSet()
	cs.SetJournal(j)
	c := cs.Curve("recon.lp.accuracy")
	c.AddStats(32, 0.75, map[string]int64{"chunk": 32})

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("journal events = %d, want 1", len(events))
	}
	e := events[0]
	if e.Phase != "attack.converge" || e.ID != "recon.lp.accuracy" {
		t.Errorf("event = %+v", e)
	}
	if e.Curve == nil || e.Curve.Name != "recon.lp.accuracy" || e.Curve.X != 32 || e.Curve.Y != 0.75 || e.Curve.Stats["chunk"] != 32 {
		t.Errorf("event curve sample = %+v", e.Curve)
	}

	cs.SetJournal(nil)
	c.Add(64, 0.9)
	if got := j.Events(); got != 1 {
		t.Errorf("journal events after detach = %d, want 1", got)
	}
}

func TestCurveTracerCounterLane(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(true)
	cs := NewCurveSet()
	cs.SetTracer(tr)
	cs.Curve("recon.lp.accuracy").Add(16, 0.5)
	cs.Curve("recon.lp.accuracy").Add(32, 0.8)

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

func TestCurveReset(t *testing.T) {
	cs := NewCurveSet()
	cs.Curve("recon.lp.accuracy").Add(1, 0.5)
	cs.Reset()
	if len(cs.Names()) != 0 {
		t.Errorf("Reset left names %v", cs.Names())
	}
	// x starts over after a Reset.
	c := cs.Curve("recon.lp.accuracy")
	c.Add(1, 0.2)
	if pts := cs.Snapshot()[c.Name()]; len(pts) != 1 || pts[0].X != 1 || pts[0].Y != 0.2 {
		t.Errorf("post-Reset points = %+v", pts)
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
