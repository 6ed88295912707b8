package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"singlingout/internal/obs"
)

// A run builds its workload from scratch at least minSetups times, and
// more while the set-ups together took less than setupBudget (at most
// maxSetups); setup_s is the median, so one slow set-up does not move it.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// minWindow is the shortest stretch of consecutive rounds the timed phase
// is cut into. Each window yields its own throughput, median latency, CPU
// per operation and memory. The host's neighbours slow the benchmark down
// in bursts that last from a second to a whole run and never speed it up,
// so a run reports the faster quartile of its windows: the 25th percentile
// of window latency and CPU per operation, the 75th of window throughput.
// A change that slows the code slows every window and still shows. Memory
// does not suffer from the neighbours and is the median over windows.
const minWindow = 250 * time.Millisecond

// traceWindow bounds how long the obs tracer keeps every event of a traced
// run: the serving workloads record tens of events per request, and a
// 10-second window of them would hold hundreds of megabytes. The layer
// accounting covers the whole timed phase; only the Perfetto export is cut.
const traceWindow = 2 * time.Second

// options configures one measured run of one workload.
type options struct {
	seed    int64
	seconds float64
	// rounds > 0 runs exactly that many timed rounds instead of running
	// for seconds; the test uses it to make counts comparable.
	rounds int
	trace  bool
	dir    string // scratch files, and traced-run output under dir/trace
	// setups is the least number of set-ups; with setupBudget > 0 more
	// follow while the set-ups took less than it in total.
	setups      int
	setupBudget time.Duration
	sizes       sizes
}

// spec names a workload and builds it. setup constructs the workload from
// the seed and warms it up; the run times it.
type spec struct {
	name string
	// server marks the serving workloads: they keep the obs registry on in
	// the untraced run, as the production query server does, and run two
	// client lanes at once.
	server bool
	setup  func(r *run, seed int64) (workload, error)
}

// workload is one built workload. round runs one balanced unit of
// operations (one of each kind the workload mixes), so stopping between
// rounds never skews the mix.
type workload interface {
	round(r *run) error
	// check verifies every output the run produced and returns one line
	// naming each failed check.
	check() []string
	// layerCounts returns the per-layer work counts the workload tracks
	// itself (records drawn, classes released, WAL bytes, ...).
	layerCounts() map[string]int64
	close() error
}

// run is the state a workload records into while it runs: operation
// latencies, failed operations and, in a traced run, layer spans.
type run struct {
	sz  sizes
	dir string
	tr  *tracer // nil in an untraced run

	mu     sync.Mutex
	lat    []time.Duration
	failed int
}

// op records one completed operation and its latency.
func (r *run) op(d time.Duration) {
	r.mu.Lock()
	r.lat = append(r.lat, d)
	r.mu.Unlock()
}

// fail records one failed operation.
func (r *run) fail() {
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
}

// traced reports whether this run records layer spans.
func (r *run) traced() bool { return r.tr != nil }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one measured run reports.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	failedChecks      []string
	notes             []string
	// counts are the raw work counters of a traced run's timed phase, for
	// the determinism test.
	counts map[string]int64
}

// Stage names: every workload's operation splits into the same four roles
// of the paper's setting, whichever packages play them.
const (
	stInput     = "input"     // drawing the data or the query inputs (synth, query)
	stCurator   = "curator"   // the data holder's release or answer (kanon, pso oracles, query, census tables, qserver)
	stAdversary = "adversary" // the attack (pso attackers, recon+lp, census+sat, remote client)
	stHarness   = "harness"   // scoring and bookkeeping around the operation
)

var stages = []string{stInput, stCurator, stAdversary, stHarness}

// measure builds the workload opts.setups times, runs its timed phase and
// computes the run's metrics.
func measure(sp spec, o options) (result, error) {
	reg := obs.Default()
	reg.SetEnabled(o.trace || sp.server)
	defer reg.SetEnabled(false)
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r := &run{sz: o.sizes, dir: dir}
	if o.trace {
		r.tr = newTracer(obs.DefaultTracer())
	}

	var w workload
	var setupSecs []float64
	var spent time.Duration
	for i := 0; i < o.setups || i < maxSetups && spent < o.setupBudget; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return result{}, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		w, err = sp.setup(r, o.seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setupSecs = append(setupSecs, d.Seconds())
	}
	timed, err := runTimed(sp, o, r, w)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return result{}, err
	}
	timed.setupS = median(setupSecs)
	return timed.result(sp, o, r), nil
}

// timedPhase holds the raw measurements of a run's timed phase.
type timedPhase struct {
	rounds       int
	wall         time.Duration
	windows      []window
	setupS       float64
	delta        obs.Snapshot
	rt           runtimeDelta
	traceEvents  int
	traceDropped int64
	checks       []string
	layerCounts  map[string]int64
}

// window is one stretch of consecutive rounds of the timed phase.
type window struct {
	ops       int
	wall, cpu time.Duration
	p50Ms     float64 // median latency of the window's operations
	memMiB    float64 // Go runtime memory resident at the window's end
}

func runTimed(sp spec, o options, r *run, w workload) (timedPhase, error) {
	// Discard what the warm-up recorded.
	r.lat, r.failed = nil, 0
	if r.tr != nil {
		r.tr.reset()
	}
	var stopTrace func() error
	if o.trace {
		var err error
		if stopTrace, err = startTrace(o.dir, sp.name); err != nil {
			return timedPhase{}, err
		}
	}
	before := obs.Default().Snapshot()
	rt0 := readRuntime()
	start := time.Now()
	dur := time.Duration(o.seconds * float64(time.Second))
	var tp timedPhase
	winStart, winCPU, winOps := start, cpuTime(), 0
	closeWindow := func(now time.Time) {
		if len(r.lat) > winOps {
			cpu := cpuTime()
			tp.windows = append(tp.windows, window{
				ops:    len(r.lat) - winOps,
				wall:   now.Sub(winStart),
				cpu:    cpu - winCPU,
				p50Ms:  medianMs(r.lat[winOps:]),
				memMiB: residentMiB(),
			})
			winCPU = cpu
		}
		winStart, winOps = now, len(r.lat)
	}
	for {
		if o.rounds > 0 && tp.rounds >= o.rounds || o.rounds == 0 && tp.rounds > 0 && time.Since(start) >= dur {
			break
		}
		if err := w.round(r); err != nil {
			if stopTrace != nil {
				_ = stopTrace()
			}
			return timedPhase{}, fmt.Errorf("round %d: %w", tp.rounds, err)
		}
		tp.rounds++
		if now := time.Now(); now.Sub(winStart) >= minWindow {
			closeWindow(now)
		}
		if o.trace && time.Since(start) >= traceWindow {
			obs.DefaultTracer().SetEnabled(false)
		}
	}
	closeWindow(time.Now())
	tp.wall = time.Since(start)
	tp.rt = readRuntime().sub(rt0)
	tp.delta = obs.Default().Snapshot().Delta(before)
	tp.checks = w.check()
	tp.layerCounts = w.layerCounts()
	if o.trace {
		ot := obs.DefaultTracer()
		tp.traceEvents = len(ot.Events())
		tp.traceDropped = ot.Dropped()
		if err := stopTrace(); err != nil {
			return timedPhase{}, err
		}
	}
	return tp, nil
}

// medianMs is the median of latencies, in milliseconds.
func medianMs(lat []time.Duration) float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return median(ms)
}

// overWindows is the q-quantile over the windows of f.
func (tp timedPhase) overWindows(q float64, f func(w window) float64) float64 {
	vs := make([]float64, len(tp.windows))
	for i, w := range tp.windows {
		vs[i] = f(w)
	}
	sort.Float64s(vs)
	return quantile(vs, q)
}

// startTrace enables the obs tracer and the CPU profiler for the timed
// phase. The returned function stops both and writes the Perfetto trace.
func startTrace(dir, name string) (func() error, error) {
	out := filepath.Join(dir, "trace")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(out, name+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	ot := obs.DefaultTracer()
	ot.Reset()
	ot.SetEnabled(true)
	return func() error {
		ot.SetEnabled(false)
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(out, name+".trace.json"))
		if err != nil {
			return err
		}
		if err := ot.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		ot.Reset()
		return f.Close()
	}, nil
}

// result turns the raw measurements into the run's metrics: end-to-end
// ones for an untraced run, per-layer ones for a traced run.
func (tp timedPhase) result(sp spec, o options, r *run) result {
	res := result{
		attempted:    len(r.lat) + r.failed,
		failed:       r.failed,
		failedChecks: tp.checks,
		metrics:      map[string]metric{},
	}
	ops := float64(max(len(r.lat), 1))
	lat := make([]float64, len(r.lat))
	for i, d := range r.lat {
		lat[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(lat)
	res.notes = append(res.notes,
		fmt.Sprintf("rounds=%d windows=%d ops=%d wall_s=%.3f peak_rss_mb=%.1f; whole run: op_p50_ms=%.4g op_p90_ms=%.4g op_p99_ms=%.4g from %d samples (not gated)",
			tp.rounds, len(tp.windows), len(r.lat), tp.wall.Seconds(), peakRSSMiB(), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), len(lat)))
	if !o.trace {
		set := func(name string, v float64) { res.metrics[name] = metric{v, unitOf(endToEnd, name)} }
		set("op_p50_ms", tp.overWindows(0.25, func(w window) float64 { return w.p50Ms }))
		set("ops_per_s", tp.overWindows(0.75, func(w window) float64 { return float64(w.ops) / w.wall.Seconds() }))
		set("cpu_ms_per_op", tp.overWindows(0.25, func(w window) float64 { return float64(w.cpu) / float64(time.Millisecond) / float64(w.ops) }))
		set("mem_mb", tp.overWindows(0.5, func(w window) float64 { return w.memMiB }))
		set("setup_s", tp.setupS)
		return res
	}

	set := func(name string, v float64) { res.metrics[name] = metric{v, unitOf(perLayer, name)} }
	self := r.tr.selfTimes()
	var accounted time.Duration
	for _, st := range stages {
		accounted += self[st]
		set("stage."+st+"_ms", float64(self[st])/float64(time.Millisecond)/ops)
	}
	lanes := 1.0
	if sp.server {
		lanes = 2
	}
	accountedFrac := float64(accounted) / (lanes * float64(tp.wall))
	set("stage.accounted_frac", accountedFrac)
	if !sp.server && accountedFrac < 0.95 {
		res.failedChecks = append(res.failedChecks,
			fmt.Sprintf("layer accounting: stage self times cover %.1f%% of the timed phase, want >= 95%%", 100*accountedFrac))
	}

	counts := map[string]int64{}
	for k, v := range tp.delta.Counters {
		counts[k] = v
	}
	for k, v := range tp.layerCounts {
		counts[k] = v
	}
	res.counts = counts
	perOp := func(name, counter string) { set(name, float64(counts[counter])/ops) }
	perOp("synth.records_per_op", "synth.records")
	perOp("pso.weight_draws_per_op", "pso.weight_draws")
	perOp("pso.count_queries_per_op", "pso.count_queries")
	perOp("kanon.classes_per_op", "kanon.classes")
	perOp("query.count_per_op", "query.count")
	perOp("recon.cold_restarts_per_op", "recon.stream_cold_restarts")
	perOp("lp.pivots_per_op", "lp.pivots")
	perOp("lp.dual_pivots_per_op", "lp.dual_pivots")
	perOp("lp.phase1_pivots_per_op", "lp.phase1_pivots")
	perOp("lp.refactorizations_per_op", "lp.refactorizations")
	set("lp.warm_hit_ratio", ratio(counts["lp.warm_starts"], counts["lp.warm_starts"]+counts["lp.warm_miss"]))
	perOp("sat.decisions_per_op", "sat.decisions")
	perOp("sat.propagations_per_op", "sat.propagations")
	perOp("sat.conflicts_per_op", "sat.conflicts")
	itemNS := tp.delta.Histograms["par.item_ns"].Sum
	set("par.busy_frac", float64(itemNS)/(parallelism*float64(tp.wall)))
	set("remote.cache_hit_ratio", ratio(counts["qserver.cache_hits"], counts["qserver.cache_hits"]+counts["qserver.cache_misses"]))
	perOp("remote.ledger_entries_per_op", "qserver.wal_appends")
	perOp("remote.wal_bytes_per_op", "remote.wal_bytes")
	set("remote.retries", float64(counts["remote.retries"]))
	set("remote.shed", float64(counts["qserver.shed"]))
	set("go.alloc_mb_per_op", tp.rt.allocBytes/(1<<20)/ops)
	set("go.gc_cycles_per_op", tp.rt.gcCycles/ops)
	set("go.gc_cpu_frac", ratioF(tp.rt.gcCPU, tp.rt.totalCPU))
	set("obs.trace_dropped", float64(tp.traceDropped))
	res.notes = append(res.notes, fmt.Sprintf("trace: %d events from the first %s of the timed phase, in %s",
		tp.traceEvents, traceWindow, filepath.Join(o.dir, "trace", sp.name+".trace.json")))
	if tp.traceDropped > 0 {
		res.failedChecks = append(res.failedChecks, fmt.Sprintf("trace: %d events dropped", tp.traceDropped))
	}
	if err := writeLayers(o.dir, sp.name, o.seed, tp, res.metrics, self); err != nil {
		res.failedChecks = append(res.failedChecks, "writing the layer table: "+err.Error())
	}
	return res
}

// writeLayers writes the traced run's layer table next to its trace.
func writeLayers(dir, name string, seed int64, tp timedPhase, m map[string]metric, self map[string]time.Duration) error {
	selfMS := map[string]float64{}
	for st, d := range self {
		selfMS[st] = float64(d) / float64(time.Millisecond)
	}
	data, err := json.MarshalIndent(struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		Rounds      int                `json:"rounds"`
		WallS       float64            `json:"wall_s"`
		StageSelfMS map[string]float64 `json:"stage_self_ms"`
		Metrics     map[string]metric  `json:"metrics"`
	}{name, seed, tp.rounds, tp.wall.Seconds(), selfMS, m}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace", name+".layers.json"), append(data, '\n'), 0o644)
}

// parallelism is the fixed width of every parallel part of the load: the
// census worker pool, the query server's pool workers and its client
// connections. It is never derived from GOMAXPROCS, so the work is the
// same on every host.
const parallelism = 2

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted samples by linear
// interpolation between closest ranks (0 for no samples).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMiB is the memory the Go runtime holds mapped and not returned
// to the operating system: heap, stacks and runtime metadata.
func residentMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeDelta is the Go runtime's allocation and GC work over an
// interval, from runtime/metrics.
type runtimeDelta struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{v(0), v(1), v(2), v(3)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// checks collects failed output checks.
type checks []string

// expect records a failed check, named by the formatted message, unless ok.
func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}
