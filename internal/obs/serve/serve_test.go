package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"singlingout/internal/obs"
)

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// parsePrometheus is a strict mini-parser for the text exposition format:
// every line must be a well-formed HELP/TYPE comment or a `name value`
// sample with a valid identifier and a parseable float. It returns the
// samples and fails the test on any malformed line.
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				t.Fatalf("malformed comment line %q", line)
			}
			if !promNameRe.MatchString(fields[2]) {
				t.Fatalf("invalid metric name in %q", line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					t.Fatalf("invalid TYPE in %q", line)
				}
				if _, dup := types[fields[2]]; dup {
					t.Fatalf("duplicate TYPE for %s", fields[2])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		// Histogram bucket samples carry an {le="..."} label; the bare
		// name before the brace must still be a valid identifier.
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "\"}") || !strings.Contains(name[i:], "le=\"") {
				t.Fatalf("malformed labeled sample %q", fields[0])
			}
			name = name[:i]
		}
		if !promNameRe.MatchString(name) {
			t.Fatalf("invalid sample name %q", fields[0])
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if _, dup := samples[fields[0]]; dup {
			t.Fatalf("duplicate sample %q", fields[0])
		}
		samples[fields[0]] = v
	}
	return samples
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"census.workers":   "census_workers",
		"query.latency_ns": "query_latency_ns",
		"par.items":        "par_items",
		"9lives":           "_9lives",
		"ok_name":          "ok_name",
		"":                 "_",
		"a-b c":            "a_b_c",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.Counter("query.count").Add(12345)
	reg.Gauge("census.workers").Set(8)
	reg.Gauge("census.exact_fraction").Set(0.8125)
	for _, v := range []int64{10, 20, 30} {
		reg.Histogram("par.item_ns").Observe(v)
	}

	srv := httptest.NewServer(New(reg, nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	samples := parsePrometheus(t, string(body))
	want := map[string]float64{
		"query_count":           12345,
		"census_workers":        8,
		"census_exact_fraction": 0.8125,
		"par_item_ns_count":     3,
		"par_item_ns_sum":       60,
		"par_item_ns_min":       10,
		"par_item_ns_max":       30,
		"par_item_ns_mean":      20,
		// Cumulative base-2 buckets: 10 is in [8,15], 20 and 30 in [16,31].
		`par_item_ns_bucket{le="15"}`:   1,
		`par_item_ns_bucket{le="31"}`:   3,
		`par_item_ns_bucket{le="+Inf"}`: 3,
	}
	for name, v := range want {
		if samples[name] != v {
			t.Errorf("sample %s = %v, want %v", name, samples[name], v)
		}
	}
	// Sample lines must carry only sanitized identifiers (the original
	// dotted name may appear in HELP text); parsePrometheus enforces this,
	// so just pin that no dotted name leaked as a sample.
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "census.") || strings.HasPrefix(line, "query.") || strings.HasPrefix(line, "par.") {
			t.Errorf("dotted metric name leaked into sample line %q", line)
		}
	}
}

func TestSnapshotAndHealthzEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.Counter("lp.pivots").Add(77)
	journal := obs.NewJournal(io.Discard)
	journal.Emit(obs.Event{Phase: "run_start", Seed: 9}) //nolint:errcheck

	s := New(reg, journal)
	s.SetPhase("E02")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["lp.pivots"] != 77 {
		t.Errorf("snapshot = %+v", snap)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Phase != "E02" || h.UptimeSeconds < 0 || h.JournalEvents != 1 {
		t.Errorf("healthz = %+v", h)
	}
}

// readSSEEvents reads SSE frames off the stream until n journal events
// arrived or the deadline passes.
func readSSEEvents(t *testing.T, body io.Reader, n int) []obs.Event {
	t.Helper()
	var out []obs.Event
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("SSE data is not an Event: %v (%q)", err, line)
		}
		out = append(out, e)
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("SSE stream ended after %d of %d events: %v", len(out), n, sc.Err())
	return nil
}

func TestJournalSSETail(t *testing.T) {
	reg := obs.NewRegistry()
	journal := obs.NewJournal(io.Discard)
	journal.Emit(obs.Event{Phase: "run_start", Seed: 4}) //nolint:errcheck

	s := New(reg, journal)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close() //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/journal", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// Emit live events after the stream is connected.
	go func() {
		for i := 0; i < 3; i++ {
			journal.Emit(obs.Event{Phase: "experiment", ID: fmt.Sprintf("E%02d", i)}) //nolint:errcheck
			time.Sleep(5 * time.Millisecond)
		}
	}()

	events := readSSEEvents(t, resp.Body, 4)
	if events[0].Phase != "run_start" || events[0].Seed != 4 {
		t.Errorf("replay event = %+v", events[0])
	}
	for i, e := range events[1:] {
		if e.Phase != "experiment" || e.ID != fmt.Sprintf("E%02d", i) {
			t.Errorf("live event %d = %+v", i, e)
		}
	}
}

// readSSECurves reads SSE frames off a /converge stream until n curve
// samples arrived or the deadline passes. Every frame must be a converge
// frame carrying a named curve sample.
func readSSECurves(t *testing.T, body io.Reader, n int) []obs.CurveSample {
	t.Helper()
	var out []obs.CurveSample
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") && line != "event: converge" {
			t.Fatalf("non-curve frame on /converge: %q", line)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var s obs.CurveSample
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil || s.Name == "" {
			t.Fatalf("SSE data is not a CurveSample: %v (%q)", err, line)
		}
		out = append(out, s)
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("SSE stream ended after %d of %d samples: %v", len(out), n, sc.Err())
	return nil
}

// TestConvergeJSONSnapshot: plain GET /converge groups the points among
// the journal's retained events by curve and skips every other event; a
// server without a journal holds no curve.
func TestConvergeJSONSnapshot(t *testing.T) {
	journal := obs.NewJournal(io.Discard)
	cs := new(obs.CurveSet)
	cs.SetJournal(journal)
	journal.Emit(obs.Event{Phase: "run_start"}) //nolint:errcheck
	cs.Curve("recon.lp.accuracy").AddStats(32, 0.6, nil)
	cs.Curve("census.exact_fraction").AddStats(26, 0.25, nil)
	journal.Emit(obs.Event{Phase: "experiment", ID: "E02.stream"}) //nolint:errcheck
	cs.Curve("recon.lp.accuracy").AddStats(64, 0.9, nil)

	srv := httptest.NewServer(New(obs.NewRegistry(), journal).Handler())
	defer srv.Close()
	bare := httptest.NewServer(New(obs.NewRegistry(), nil).Handler())
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/converge")
	if err != nil {
		t.Fatal(err)
	}
	var empty convergeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&empty); err != nil || len(empty.Curves) != 0 {
		t.Errorf("without a journal: %+v, %v; want no curve", empty, err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/converge")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var snap convergeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Curves) != 2 {
		t.Errorf("curves = %+v, want recon.lp.accuracy and census.exact_fraction", snap.Curves)
	}
	lp := snap.Curves["recon.lp.accuracy"]
	if len(lp) != 2 || lp[0].X != 32 || lp[1].X != 64 || lp[1].Y != 0.9 {
		t.Errorf("lp curve = %+v", lp)
	}
	if got := snap.Curves["census.exact_fraction"]; len(got) != 1 || got[0].X != 26 {
		t.Errorf("census curve = %+v", got)
	}
	if snap.Dropped != 0 {
		t.Errorf("dropped = %d", snap.Dropped)
	}
}

// convergeTail connects an SSE client to the /converge endpoint at url.
func convergeTail(t *testing.T, ctx context.Context, url string) *http.Response {
	t.Helper()
	req, _ := http.NewRequestWithContext(ctx, "GET", url+"/converge", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("content type = %q", ct)
	}
	return resp
}

func TestConvergeSSETail(t *testing.T) {
	journal := obs.NewJournal(io.Discard)
	cs := new(obs.CurveSet)
	cs.SetJournal(journal)
	curve := cs.Curve("recon.lp.accuracy")
	curve.AddStats(16, 0.5, nil)

	s := New(obs.NewRegistry(), journal)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close() //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := convergeTail(t, ctx, srv.URL)
	defer resp.Body.Close()

	// Add live points after the stream is connected, with a journal event
	// between them that /converge must not pass.
	go func() {
		for i := int64(1); i <= 3; i++ {
			curve.AddStats(16+16*i, 0.5+0.1*float64(i), map[string]int64{"chunk": 16})
			journal.Emit(obs.Event{Phase: "experiment", ID: "E02.stream"}) //nolint:errcheck
			time.Sleep(5 * time.Millisecond)
		}
	}()

	samples := readSSECurves(t, resp.Body, 4)
	if samples[0].Name != "recon.lp.accuracy" || samples[0].X != 16 || samples[0].Y != 0.5 {
		t.Errorf("replay sample = %+v", samples[0])
	}
	for i, smp := range samples[1:] {
		wantX := int64(32 + 16*i)
		if smp.X != wantX || smp.Stats["chunk"] != 16 {
			t.Errorf("live sample %d = %+v, want x=%d", i, smp, wantX)
		}
	}
	// The tail must be monotone in x per curve — the invariant plotters
	// rely on.
	for i := 1; i < len(samples); i++ {
		if samples[i].X <= samples[i-1].X {
			t.Errorf("curve tail not monotone: x[%d]=%d after x=%d", i, samples[i].X, samples[i-1].X)
		}
	}
}

// TestConvergeLateSubscriberReplaysRun: a /converge client that connects
// after a run's 300 curve points, interleaved with as many other journal
// events, replays every point and nothing else from the journal's ring.
func TestConvergeLateSubscriberReplaysRun(t *testing.T) {
	journal := obs.NewJournal(io.Discard)
	cs := new(obs.CurveSet)
	cs.SetJournal(journal)
	curve := cs.Curve("census.exact_fraction")
	const points = 300
	for i := int64(1); i <= points; i++ {
		journal.Emit(obs.Event{Phase: "experiment", ID: "E11.stream"}) //nolint:errcheck
		curve.AddStats(i, float64(i)/points, nil)
	}

	s := New(obs.NewRegistry(), journal)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close() //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := convergeTail(t, ctx, srv.URL)
	defer resp.Body.Close()
	// The tail subscribed before its response started, so a live
	// non-curve event and one more point follow the replay: the next
	// frame must be that point.
	journal.Emit(obs.Event{Phase: "run_end"}) //nolint:errcheck
	curve.AddStats(points+1, 1, nil)
	samples := readSSECurves(t, resp.Body, points+1)
	for i, smp := range samples {
		if smp.Name != "census.exact_fraction" || smp.X != int64(i+1) {
			t.Fatalf("frame %d = %+v, want census.exact_fraction x=%d", i, smp, i+1)
		}
	}
}

func TestHealthzReportsJournalDropped(t *testing.T) {
	journal := obs.NewJournal(io.Discard)
	_, _, cancel := journal.Subscribe(1)
	defer cancel()
	for i := 0; i < 4; i++ {
		journal.Emit(obs.Event{Phase: "experiment", ID: "flood"}) //nolint:errcheck
	}

	s := New(obs.NewRegistry(), journal)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.JournalEvents != 4 || h.JournalDropped != 3 {
		t.Errorf("healthz = %+v, want 4 events with 3 dropped", h)
	}
}

func TestJournalEndpointWithoutJournal(t *testing.T) {
	srv := httptest.NewServer(New(obs.NewRegistry(), nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(obs.NewRegistry(), nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap profile") {
		t.Errorf("pprof heap endpoint: status %d, body %.80q", resp.StatusCode, body)
	}
}

// TestConcurrentScrapeDuringRun is the -race acceptance test: endpoints
// are scraped continuously while a simulated run hammers the registry,
// the journal, and the default tracer from many goroutines.
func TestConcurrentScrapeDuringRun(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	journal := obs.NewJournal(io.Discard)
	s := New(reg, journal)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter("query.count").Add(1)
				reg.Gauge("census.workers").Set(float64(w))
				reg.Histogram("query.latency_ns").Observe(int64(i % 1000))
				if i%50 == 0 {
					journal.Emit(obs.Event{Phase: "experiment", ID: "E01", Seed: int64(i)}) //nolint:errcheck
					s.SetPhase(fmt.Sprintf("worker%d", w))
					// Yield so the scrape goroutines get CPU time even on a
					// single-core host.
					runtime.Gosched()
				}
			}
		}(w)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 10; i++ {
		for _, path := range []string{"/metrics", "/snapshot", "/healthz"} {
			resp, err := client.Get("http://" + addr + path)
			if err != nil {
				t.Fatalf("scrape %s: %v", path, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("scrape %s: status %d", path, resp.StatusCode)
			}
			if path == "/metrics" {
				parsePrometheus(t, string(body))
			}
		}
	}
	close(stop)
	wg.Wait()
}
