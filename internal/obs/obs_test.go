package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	g := r.Gauge("x.rate")

	// Disabled registry: no-ops.
	c.Add(5)
	g.Set(1.5)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("disabled registry recorded: counter=%d gauge=%v", c.Value(), g.Value())
	}

	r.SetEnabled(true)
	c.Add(5)
	c.Add(2)
	g.Set(1.5)
	if c.Value() != 7 {
		t.Errorf("counter = %d, want 7", c.Value())
	}
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v, want 1.5", g.Value())
	}
	if got := r.Counter("x.count"); got != c {
		t.Error("Counter must be get-or-create, got a fresh instance")
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("lat")
	for _, v := range []int64{1, 2, 3, 10, -4} { // -4 clamps to 0
		h.Observe(v)
	}
	s := h.Stat()
	if s.Count != 5 || s.Sum != 16 || s.Min != 0 || s.Max != 10 {
		t.Errorf("stat = %+v", s)
	}
	if s.Mean != 16.0/5 {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRegistry()

	// Disabled: zero span, no observation.
	if d := r.Histogram("op_ns").Span().End(); d != 0 {
		t.Errorf("disabled span recorded %d", d)
	}

	r.SetEnabled(true)
	sp := r.Histogram("op_ns").Span()
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Errorf("span duration = %d", d)
	}
	if s := r.Histogram("op_ns").Stat(); s.Count != 1 || s.Sum <= 0 {
		t.Errorf("span histogram = %+v", s)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc.count")
			h := r.Histogram("conc.size")
			for j := 0; j < per; j++ {
				c.Add(1)
				h.Observe(int64(j % 7))
				r.Gauge("conc.last").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc.count").Value(); got != goroutines*per {
		t.Errorf("counter = %d, want %d", got, goroutines*per)
	}
	if got := r.Histogram("conc.size").Stat().Count; got != goroutines*per {
		t.Errorf("histogram count = %d, want %d", got, goroutines*per)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("a").Add(10)
	r.Counter("b").Add(1)
	r.Histogram("h").Observe(4)
	before := r.Snapshot()

	r.Counter("a").Add(5)
	r.Gauge("g").Set(0.25)
	r.Histogram("h").Observe(6)
	r.Histogram("h").Observe(2)
	d := r.Snapshot().Delta(before)

	if d.Counters["a"] != 5 {
		t.Errorf("delta a = %d, want 5", d.Counters["a"])
	}
	if _, ok := d.Counters["b"]; ok {
		t.Error("unchanged counter b must be dropped from the delta")
	}
	if d.Gauges["g"] != 0.25 {
		t.Errorf("gauge g = %v", d.Gauges["g"])
	}
	h := d.Histograms["h"]
	if h.Count != 2 || h.Sum != 8 || h.Mean != 4 {
		t.Errorf("hist delta = %+v", h)
	}
	if d.Empty() {
		t.Error("delta should not be empty")
	}
	if !r.Snapshot().Delta(r.Snapshot()).Empty() {
		t.Error("self-delta should be empty")
	}
}

func TestSnapshotFlat(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("z.count").Add(3)
	r.Counter("a.count").Add(1)
	r.Histogram("m.lat_ns").Observe(10)
	flat := r.Snapshot().Flat()
	if len(flat) != 6 { // two counters + hist .count/.mean/.p50/.p99
		t.Fatalf("flat = %+v", flat)
	}
	for i := 1; i < len(flat); i++ {
		if flat[i-1].Name >= flat[i].Name {
			t.Errorf("flat not sorted: %q before %q", flat[i-1].Name, flat[i].Name)
		}
	}
	if flat[0].Name != "a.count" || flat[0].Value != 1 {
		t.Errorf("first metric = %+v", flat[0])
	}
}

// TestDisabledPathNoAlloc pins the acceptance criterion that the disabled
// hot path performs no allocation.
func TestDisabledPathNoAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.count")
	h := r.Histogram("hot.lat_ns")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(17)
		sp := h.Span()
		sp.End()
	}); n != 0 {
		t.Errorf("disabled path allocates %v per op", n)
	}
	if c.Value() != 0 || h.Stat().Count != 0 {
		t.Error("disabled path must not record")
	}
}
