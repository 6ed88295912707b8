// Package obs is the repository's dependency-free observability layer: a
// metrics registry (counters, gauges, histograms — all with atomic hot
// paths), span timers, point-in-time snapshots with deltas, a structured
// JSONL run journal, and pprof/trace flag helpers for the cmd tools.
//
// Every quantitative claim the paper makes (Dinur–Nissim query complexity,
// LP reconstruction cost, PSO success rates) is a statement about how much
// work an attacker's pipeline does. The attack and defense packages
// (query, lp, sat, recon, census, pso, diffix) record that work here, so
// every experiment run can report query counts, simplex pivots, SAT
// conflicts and match rates alongside its table.
//
// Registries start disabled: the disabled path of every instrument is a
// single atomic load with no allocation, so instrumentation can stay
// compiled into hot paths permanently. cmd/repro -metrics (and the bench
// harness) enable the default registry for the duration of a run.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is not
// usable; obtain counters from a Registry.
type Counter struct {
	v       atomic.Int64
	enabled *atomic.Bool
}

// Add increments the counter by delta when the owning registry is enabled.
func (c *Counter) Add(delta int64) {
	if c.enabled.Load() {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric.
type Gauge struct {
	bits    atomic.Uint64
	enabled *atomic.Bool
}

// Set records the gauge value when the owning registry is enabled.
func (g *Gauge) Set(v float64) {
	if g.enabled.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last recorded value (zero if never set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram aggregates non-negative int64 observations (sizes, counts,
// nanosecond durations) into exponential base-2 buckets with atomic
// count/sum/min/max. Negative observations clamp to zero.
type Histogram struct {
	enabled *atomic.Bool
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value when the owning registry is enabled.
func (h *Histogram) Observe(v int64) {
	if !h.enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Stat summarizes the histogram, including the bucket counts (trimmed of
// trailing empty buckets) and the quantiles derived from them.
func (h *Histogram) Stat() HistStat {
	s := HistStat{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		s.Mean = float64(s.Sum) / float64(s.Count)
		top := 0
		for i := range h.buckets {
			if h.buckets[i].Load() > 0 {
				top = i
			}
		}
		s.Buckets = make([]int64, top+1)
		for i := range s.Buckets {
			s.Buckets[i] = h.buckets[i].Load()
		}
		s.fillQuantiles()
	}
	return s
}

// BucketBounds returns the value range [lo, hi) of base-2 bucket i:
// bucket 0 holds exactly 0, bucket i >= 1 holds v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
func BucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 0
	}
	lo = math.Ldexp(1, i-1)
	return lo, 2 * lo
}

// BucketUpperBound returns the largest integer value bucket i can hold —
// the inclusive Prometheus `le` boundary of the cumulative exposition:
// 0 for bucket 0, 2^i - 1 for bucket i >= 1.
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Span times one operation into a latency histogram. The zero Span (from a
// disabled registry) is a no-op; End on it costs one nil check.
type Span struct {
	h     *Histogram
	start time.Time
}

// Span starts a timer against this histogram; it returns the zero Span
// when the owning registry is disabled, skipping the time.Now call.
func (h *Histogram) Span() Span {
	if h == nil || !h.enabled.Load() {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the elapsed nanoseconds and returns them (0 for a zero Span).
func (s Span) End() int64 {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start).Nanoseconds()
	s.h.Observe(d)
	return d
}

// Registry holds named metrics. Metric accessors are get-or-create and
// safe for concurrent use; the returned pointers may be cached and used
// from any goroutine. A registry starts disabled.
type Registry struct {
	enabled  atomic.Bool
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the internal packages record
// into. It starts disabled; cmd tools and benchmarks enable it.
func Default() *Registry { return defaultRegistry }

// SetEnabled turns recording on or off. Metrics retain their values when
// disabled; use Reset to zero them.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{enabled: &r.enabled}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{enabled: &r.enabled}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{enabled: &r.enabled}
	h.min.Store(math.MaxInt64)
	r.hists[name] = h
	return h
}
