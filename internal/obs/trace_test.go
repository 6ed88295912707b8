package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeTrace parses a Chrome trace-event export back into its event list.
func decodeTrace(t *testing.T, data []byte) []TraceEvent {
	t.Helper()
	var out chromeTrace
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	return out.TraceEvents
}

func TestTracerDisabledIsNoop(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("x", "c", MainLane, NoSpan)
	if sp.ID() != NoSpan {
		t.Errorf("disabled Begin allocated id %d", sp.ID())
	}
	sp.End()
	if lane := tr.NewLane("w"); lane != MainLane {
		t.Errorf("disabled NewLane = %d, want MainLane", lane)
	}
	if n := len(tr.Events()); n != 0 {
		t.Errorf("disabled tracer recorded %d events", n)
	}
}

func TestTracerHierarchyAndChromeExport(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(true)
	root := tr.Begin("par.ForEach n=2 workers=2", "par", MainLane, NoSpan)
	lane0 := tr.NewLane("worker 0")
	lane1 := tr.NewLane("worker 1")
	if lane0 == MainLane || lane1 == MainLane || lane0 == lane1 {
		t.Fatalf("lanes not distinct: %d %d", lane0, lane1)
	}
	c0 := tr.Begin("item 0", "par.item", lane0, root.ID())
	c1 := tr.Begin("item 1", "par.item", lane1, root.ID())
	c0.End()
	c1.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())

	laneNames := map[int]string{}
	var complete []TraceEvent
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				laneNames[e.TID] = e.Args["name"].(string)
			}
		case "X":
			complete = append(complete, e)
		}
	}
	if laneNames[MainLane] != "main" || laneNames[lane0] != "worker 0" || laneNames[lane1] != "worker 1" {
		t.Errorf("lane metadata = %v", laneNames)
	}
	if len(complete) != 3 {
		t.Fatalf("complete events = %d, want 3", len(complete))
	}
	// Events are sorted by start time: the root span began first.
	if complete[0].Name != "par.ForEach n=2 workers=2" || complete[0].TID != MainLane {
		t.Errorf("first event = %+v", complete[0])
	}
	rootID := complete[0].Args["id"].(float64)
	if _, hasParent := complete[0].Args["parent"]; hasParent {
		t.Error("root span must not carry a parent arg")
	}
	for _, e := range complete[1:] {
		if e.Cat != "par.item" {
			t.Errorf("child category = %q", e.Cat)
		}
		if e.Args["parent"].(float64) != rootID {
			t.Errorf("child parent = %v, want root id %v", e.Args["parent"], rootID)
		}
		if e.TS < 0 || e.Dur < 0 {
			t.Errorf("negative timing: %+v", e)
		}
	}
}

func TestTracerLimitDropsAndCounts(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(true)
	tr.limit = 3
	for i := 0; i < 10; i++ {
		tr.Begin("s", "c", MainLane, NoSpan).End()
	}
	if n := len(tr.Events()); n != 3 {
		t.Errorf("retained %d events, want 3", n)
	}
	if d := tr.Dropped(); d != 7 {
		t.Errorf("dropped = %d, want 7", d)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("7 events dropped")) {
		t.Error("export must surface the dropped-event count")
	}
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Dropped() != 0 {
		t.Error("Reset must clear events and dropped count")
	}
}
