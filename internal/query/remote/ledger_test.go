package remote_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

func TestLedgerEndpointAndReplay(t *testing.T) {
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: 7, Budget: 5})
	alice, err := remote.Dial(ctx, ts.URL, remote.Options{Analyst: "alice", Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := remote.Dial(ctx, ts.URL, remote.Options{Analyst: "bob", Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// alice: 3 fresh, then 2 fresh; bob: 1 fresh; alice: 4 fresh denied.
	if _, err := alice.Answer(ctx, [][]int{{0}, {1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Answer(ctx, [][]int{{3}, {4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Answer(ctx, [][]int{{9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Answer(ctx, [][]int{{5}, {6}, {7}, {8}}); !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("over-budget batch: err = %v, want ErrBudgetExhausted", err)
	}

	lr, err := alice.FetchLedger(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if lr.Budget != 5 {
		t.Errorf("ledger budget = %d, want 5", lr.Budget)
	}
	if len(lr.Entries) != 4 {
		t.Fatalf("ledger entries = %d, want 4 (3 spends + 1 deny): %+v", len(lr.Entries), lr.Entries)
	}
	for i, e := range lr.Entries {
		if e.Seq != int64(i+1) {
			t.Errorf("entry %d: seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.QueryHash == "" || e.Backend != "exact" {
			t.Errorf("entry %d: missing hash/backend: %+v", i, e)
		}
	}
	last := lr.Entries[3]
	if last.Op != remote.LedgerDeny || last.Analyst != "alice" || last.Cost != 4 || last.Cumulative != 5 {
		t.Errorf("deny entry = %+v", last)
	}

	// The /ledger totals replay from the entry history and agree with the
	// server's enforced counters.
	totals, err := remote.ReplayLedger(lr.Entries)
	if err != nil {
		t.Fatalf("ReplayLedger: %v", err)
	}
	for analyst, want := range map[string]int{"alice": 5, "bob": 1} {
		if totals[analyst] != want {
			t.Errorf("replayed total[%s] = %d, want %d", analyst, totals[analyst], want)
		}
		if lr.Totals[analyst] != want {
			t.Errorf("served total[%s] = %d, want %d", analyst, lr.Totals[analyst], want)
		}
		if got := srv.BudgetSpent(analyst); got != want {
			t.Errorf("BudgetSpent(%s) = %d, want %d", analyst, got, want)
		}
	}

	// ?analyst= filters the history but not the totals.
	lr, err = alice.FetchLedger(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Entries) != 1 || lr.Entries[0].Analyst != "bob" {
		t.Errorf("filtered entries = %+v", lr.Entries)
	}
	if len(lr.Totals) != 2 {
		t.Errorf("filtered totals = %+v, want both analysts", lr.Totals)
	}
	// alice's history skips bob's sequence number and still replays.
	lr, err = alice.FetchLedger(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if totals, err := remote.ReplayLedger(lr.Entries); err != nil || totals["alice"] != 5 {
		t.Errorf("alice's history %+v replays to %v (%v), want alice 5", lr.Entries, totals, err)
	}
}

// TestFetchLedgerEscapesAnalyst: an analyst id holding query-string
// metacharacters still filters the ledger to exactly that analyst.
func TestFetchLedgerEscapesAnalyst(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 13})
	analysts := []string{"a", "a&b", "x y", "p+q"}
	for i, analyst := range analysts {
		o := dialAnalyst(t, ts.URL, "exact", analyst)
		if _, err := o.Answer(ctx, [][]int{{i}}); err != nil {
			t.Fatal(err)
		}
	}
	auditor := dialAnalyst(t, ts.URL, "exact", "auditor")
	for _, analyst := range analysts {
		lr, err := auditor.FetchLedger(ctx, analyst)
		if err != nil {
			t.Fatalf("FetchLedger(%q): %v", analyst, err)
		}
		if len(lr.Entries) != 1 || lr.Entries[0].Analyst != analyst {
			t.Errorf("FetchLedger(%q) entries = %+v, want its one spend", analyst, lr.Entries)
		}
	}
}

func TestReplayLedgerDetectsTamper(t *testing.T) {
	entries := []remote.LedgerEntry{
		{Seq: 1, Analyst: "a", Op: remote.LedgerSpend, Cost: 3, Cumulative: 3},
		{Seq: 2, Analyst: "a", Op: remote.LedgerRefund, Cost: 1, Cumulative: 2},
		{Seq: 3, Analyst: "a", Op: remote.LedgerDeny, Cost: 9, Cumulative: 2},
	}
	if _, err := remote.ReplayLedger(entries); err != nil {
		t.Fatalf("well-formed history should replay: %v", err)
	}
	tampered := append([]remote.LedgerEntry(nil), entries...)
	tampered[1].Cumulative = 3
	if _, err := remote.ReplayLedger(tampered); err == nil {
		t.Error("tampered cumulative should fail replay")
	}
	unknown := append([]remote.LedgerEntry(nil), entries...)
	unknown[2].Op = "grant"
	if _, err := remote.ReplayLedger(unknown); err == nil {
		t.Error("unknown op should fail replay")
	}
	// Histories whose cumulative chain is consistent but that hand spent
	// budget back: a negative spend, a zero-cost entry, a refund larger
	// than the analyst's spend.
	for name, bad := range map[string][]remote.LedgerEntry{
		"negative spend": {
			{Seq: 1, Analyst: "a", Op: remote.LedgerSpend, Cost: 3, Cumulative: 3},
			{Seq: 2, Analyst: "a", Op: remote.LedgerSpend, Cost: -5, Cumulative: -2},
		},
		"negative spend within the spent total": {
			{Seq: 1, Analyst: "a", Op: remote.LedgerSpend, Cost: 8, Cumulative: 8},
			{Seq: 2, Analyst: "a", Op: remote.LedgerSpend, Cost: -5, Cumulative: 3},
		},
		"zero-cost spend": {
			{Seq: 1, Analyst: "a", Op: remote.LedgerSpend, Cost: 0, Cumulative: 0},
		},
		"zero-cost deny": {
			{Seq: 1, Analyst: "a", Op: remote.LedgerDeny, Cost: 0, Cumulative: 0},
		},
		"negative refund": {
			{Seq: 1, Analyst: "a", Op: remote.LedgerSpend, Cost: 3, Cumulative: 3},
			{Seq: 2, Analyst: "a", Op: remote.LedgerRefund, Cost: -2, Cumulative: 5},
		},
		"refund beyond the spend": {
			{Seq: 1, Analyst: "a", Op: remote.LedgerSpend, Cost: 3, Cumulative: 3},
			{Seq: 2, Analyst: "a", Op: remote.LedgerRefund, Cost: 7, Cumulative: -4},
		},
		// Each analyst's chain is consistent; only the order is wrong.
		"sequence numbers out of order": {
			{Seq: 2, Analyst: "b", Op: remote.LedgerSpend, Cost: 1, Cumulative: 1},
			{Seq: 1, Analyst: "a", Op: remote.LedgerSpend, Cost: 1, Cumulative: 1},
		},
		"sequence number repeated": {
			{Seq: 1, Analyst: "a", Op: remote.LedgerSpend, Cost: 1, Cumulative: 1},
			{Seq: 1, Analyst: "b", Op: remote.LedgerSpend, Cost: 1, Cumulative: 1},
		},
	} {
		if _, err := remote.ReplayLedger(bad); err == nil {
			t.Errorf("%s should fail replay", name)
		}
	}
	if _, err := remote.ReplayLedger(nil); err != nil {
		t.Errorf("empty history should replay: %v", err)
	}
}

// TestTraceHeadersAndBudgetJournal pins the wire contract: every query
// POST carries the trace headers, and the server's journal stamps both
// its query_batch and budget.* events with the client's trace id.
func TestTraceHeadersAndBudgetJournal(t *testing.T) {
	var journal bytes.Buffer
	srv, err := remote.NewServer(remote.ServerConfig{
		N: 16, P: 0.5, Seed: 3, Budget: 2,
		Journal: obs.NewJournal(&journal),
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotTrace, gotAnalyst atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/query/") {
			gotTrace.Store(r.Header.Get(remote.HeaderTraceID))
			gotAnalyst.Store(r.Header.Get(remote.HeaderAnalyst))
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	o, err := remote.Dial(ctx, ts.URL, remote.Options{Analyst: "mallory", Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.TraceID()) != 16 {
		t.Fatalf("TraceID() = %q, want 16 hex chars", o.TraceID())
	}
	if _, err := o.Answer(ctx, [][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}
	if gotTrace.Load() != o.TraceID() {
		t.Errorf("X-Trace-Id = %v, want %q", gotTrace.Load(), o.TraceID())
	}
	if gotAnalyst.Load() != "mallory" {
		t.Errorf("X-Analyst = %v, want mallory", gotAnalyst.Load())
	}

	// A second Dial with the same identity derives the same trace id
	// (deterministic, not random).
	o2, err := remote.Dial(ctx, ts.URL, remote.Options{Analyst: "mallory", Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if o2.TraceID() != o.TraceID() {
		t.Errorf("trace id not deterministic: %q != %q", o2.TraceID(), o.TraceID())
	}

	events, err := obs.ReadEvents(&journal)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e.Phase]++
		if e.Trace != o.TraceID() {
			t.Errorf("%s event trace = %q, want %q", e.Phase, e.Trace, o.TraceID())
		}
	}
	if phases["query_batch"] != 1 || phases["budget.spend"] != 1 {
		t.Errorf("journal phases = %v, want one query_batch and one budget.spend", phases)
	}
}

// TestClientRetryTelemetry pins the retry observability: each retried
// chunk bumps remote.retries, records its backoff sleep, and emits a
// query_retry journal event.
func TestClientRetryTelemetry(t *testing.T) {
	srv, err := remote.NewServer(remote.ServerConfig{N: 16, P: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var failuresLeft atomic.Int32
	failuresLeft.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/query/") && failuresLeft.Add(-1) >= 0 {
			http.Error(w, `{"v":2,"error":{"code":"internal","message":"injected"}}`, http.StatusBadGateway)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	var journal bytes.Buffer
	o, err := remote.Dial(ctx, ts.URL, remote.Options{
		Backoff:  time.Millisecond,
		Registry: reg,
		Journal:  obs.NewJournal(&journal),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Answer(ctx, [][]int{{0}}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters[remote.MetricClientRetries] != 2 {
		t.Errorf("remote.retries = %d, want 2", snap.Counters[remote.MetricClientRetries])
	}
	if h := snap.Histograms[remote.MetricClientBackoff]; h.Count != 2 {
		t.Errorf("remote.backoff_ns count = %d, want 2", h.Count)
	}
	events, err := obs.ReadEvents(&journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("journal events = %d, want 2 query_retry: %+v", len(events), events)
	}
	for i, e := range events {
		if e.Phase != "query_retry" || e.Sizes["attempt"] != i+1 || e.Trace != o.TraceID() || e.Error == "" {
			t.Errorf("retry event %d = %+v", i, e)
		}
	}
}
