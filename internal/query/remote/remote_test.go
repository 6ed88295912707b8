package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"singlingout/internal/diffix"
	"singlingout/internal/experiments"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

var ctx = context.Background()

func newTestServer(t *testing.T, cfg remote.ServerConfig) (*remote.Server, *httptest.Server) {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 32
	}
	if cfg.P == 0 {
		cfg.P = 0.5
	}
	srv, err := remote.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

func fastOpts() remote.Options {
	return remote.Options{Backoff: time.Millisecond}
}

func TestDialServerDown(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := ts.URL
	ts.Close()
	if _, err := remote.Dial(ctx, addr, fastOpts()); err == nil {
		t.Fatal("Dial against a closed server should fail")
	}
}

func TestRemoteMatchesExact(t *testing.T) {
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: 11})
	o, err := remote.Dial(ctx, ts.URL, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	meta := o.Meta()
	if meta.N != 32 || meta.Seed != 11 {
		t.Fatalf("meta = %+v", meta)
	}
	truth := remote.Dataset(meta.Seed, meta.N, meta.P)
	local := &query.Exact{X: truth}
	queries := query.RandomSubsets(rand.New(rand.NewSource(1)), meta.N, 40)
	got, err := o.Answer(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Answer(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Unsorted submissions canonicalize to the same cached answers.
	rev := [][]int{{5, 3, 0}}
	a1, err := o.Answer(ctx, rev)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := o.Answer(ctx, [][]int{{0, 3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if a1[0] != a2[0] {
		t.Errorf("canonicalization broken: %v != %v", a1[0], a2[0])
	}
	if srv.CacheLen() == 0 {
		t.Error("answer cache never populated")
	}
	if got, _ := o.Answer(ctx, nil); len(got) != 0 {
		t.Errorf("empty batch returned %v", got)
	}
}

func TestRetryOnTransient5xx(t *testing.T) {
	srv, err := remote.NewServer(remote.ServerConfig{N: 16, P: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var reqs, failuresLeft atomic.Int32
	failuresLeft.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/query/") {
			reqs.Add(1)
			if failuresLeft.Add(-1) >= 0 {
				http.Error(w, `{"v":2,"error":{"code":"internal","message":"injected"}}`, http.StatusBadGateway)
				return
			}
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	opts := fastOpts()
	opts.MaxBatch = 2 // force chunking: the failure lands mid-Answer
	o, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	got, err := o.Answer(ctx, queries)
	if err != nil {
		t.Fatalf("Answer should survive transient 5xx: %v", err)
	}
	truth := remote.Dataset(3, 16, 0.5)
	for i, q := range queries {
		if got[i] != float64(truth[q[0]]) {
			t.Errorf("answer %d = %v, want %v", i, got[i], truth[q[0]])
		}
	}
	if reqs.Load() != 3+2 { // 3 chunks + 2 retried failures
		t.Errorf("query requests = %d, want 5", reqs.Load())
	}

	// With retries disabled, the same injected failure is fatal.
	failuresLeft.Store(1)
	opts.Retries = -1
	o2, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o2.Answer(ctx, [][]int{{9}}); err == nil {
		t.Fatal("Answer with retries disabled should surface the 5xx")
	}
}

func TestBudgetExhaustionSentinel(t *testing.T) {
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: 5, Budget: 5})
	opts := fastOpts()
	opts.Analyst = "mallory"
	o, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A batch over budget is refused whole and spends nothing.
	big := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}}
	if _, err := o.Answer(ctx, big); !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("over-budget batch: got %v, want ErrBudgetExhausted", err)
	}
	if spent := srv.BudgetSpent("mallory"); spent != 0 {
		t.Fatalf("refused batch spent %d", spent)
	}
	// A fitting batch spends exactly its distinct fresh queries.
	if _, err := o.Answer(ctx, [][]int{{0}, {1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if spent := srv.BudgetSpent("mallory"); spent != 3 {
		t.Fatalf("spent = %d, want 3", spent)
	}
	// The remaining budget still refuses a 3-fresh batch, sentinel intact.
	if _, err := o.Answer(ctx, [][]int{{3}, {4}, {5}}); !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// Budgets are per analyst.
	opts.Analyst = "bob"
	ob, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ob.Answer(ctx, [][]int{{3}, {4}, {5}}); err != nil {
		t.Fatalf("bob's budget is fresh: %v", err)
	}
}

// TestChunkRefusalKeepsEarlierChunks: an Answer call longer than
// MaxBatch goes out as several requests, each all-or-nothing on its own.
// A chunk refused for budget returns no answers, but the chunks before it
// stay charged and cached, so asking for them again spends nothing.
func TestChunkRefusalKeepsEarlierChunks(t *testing.T) {
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: 7, Budget: 3})
	opts := fastOpts()
	opts.Analyst = "erin"
	opts.MaxBatch = 2
	o, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := o.Answer(ctx, [][]int{{0}, {1}, {2}, {3}}); !errors.Is(err, query.ErrBudgetExhausted) || a != nil {
		t.Fatalf("second chunk over budget: got %v, %v; want no answers and ErrBudgetExhausted", a, err)
	}
	if spent := srv.BudgetSpent("erin"); spent != 2 {
		t.Fatalf("spent = %d, want 2: the first chunk stays charged", spent)
	}
	if _, err := o.Answer(ctx, [][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}
	if spent := srv.BudgetSpent("erin"); spent != 2 {
		t.Fatalf("spent = %d after asking the first chunk again, want 2", spent)
	}
}

// TestSplitMissesLowestRefusalDecides: with two pool workers, a batch's
// fresh misses are answered in two shares of one backend call each. When
// a query in each share is suppressed, the lower-indexed one names the
// refusal, and the whole reservation is refunded in one entry, every
// time.
func TestSplitMissesLowestRefusalDecides(t *testing.T) {
	const n = 32
	srv, err := remote.NewServer(remote.ServerConfig{N: n, P: 0.5, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Threshold 8: queries 1 (3 users, first share) and 3 (5 users,
	// second share) are suppressed.
	body, err := json.Marshal(remote.QueryRequest{V: remote.V, Analyst: "dora", Queries: bitmaps(n,
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{0, 1, 2},
		[]int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, []int{20, 21, 22, 23, 24})})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/diffix", bytes.NewReader(body)))
		var er remote.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("round %d: status %d, undecodable body %q", round, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusUnprocessableEntity || er.Err.Code != remote.CodeSuppressed || !strings.HasSuffix(er.Err.Message, ": 3 < 8") {
			t.Fatalf("round %d: %d %s %q, want 422 %s naming the 3-user query", round, rec.Code, er.Err.Code, er.Err.Message, remote.CodeSuppressed)
		}
		entries, _ := srv.Ledger("dora")
		if len(entries) != 2*(round+1) {
			t.Fatalf("round %d: %d ledger entries, want %d", round, len(entries), 2*(round+1))
		}
		spend, refund := entries[2*round], entries[2*round+1]
		if spend.Op != "spend" || spend.Cost != 4 || refund.Op != "refund" || refund.Cost != 4 || refund.Cumulative != 0 {
			t.Fatalf("round %d: entries %+v, %+v; want a spend of 4, then its refund", round, spend, refund)
		}
	}
	if spent, cached := srv.BudgetSpent("dora"), srv.CacheLen(); spent != 0 || cached != 0 {
		t.Fatalf("refused batches spent %d and cached %d answers", spent, cached)
	}
}

// TestInvalidQuerySpendsNothing: an Answer call holding an invalid query
// is refused whole before anything is posted, so the chunks before it
// spend nothing either.
func TestInvalidQuerySpendsNothing(t *testing.T) {
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: 61})
	opts := fastOpts()
	opts.Analyst = "carol"
	opts.MaxBatch = 2
	o, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{4, 4}, {4, 32}, {-1}} {
		_, err := o.Answer(ctx, [][]int{{0}, {1}, {2}, {3}, bad})
		if !errors.Is(err, query.ErrInvalidQuery) || !strings.Contains(err.Error(), "query 4:") {
			t.Errorf("batch ending in %v: err %v, want ErrInvalidQuery naming query 4", bad, err)
		}
	}
	if entries, _ := srv.Ledger("carol"); srv.BudgetSpent("carol") != 0 || len(entries) != 0 || srv.CacheLen() != 0 {
		t.Fatalf("refused calls spent %d, left ledger entries %+v and %d cached answers", srv.BudgetSpent("carol"), entries, srv.CacheLen())
	}
}

func TestCacheHitDoesNotSpendBudget(t *testing.T) {
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: 9, Budget: 2})
	opts := fastOpts()
	opts.Analyst = "alice"
	o, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := [][]int{{1, 2, 3}}
	first, err := o.Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Re-asking (any number of times, in any index order) is free.
	for i := 0; i < 10; i++ {
		again, err := o.Answer(ctx, [][]int{{3, 2, 1}})
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if again[0] != first[0] {
			t.Fatalf("cached answer drifted: %v != %v", again[0], first[0])
		}
	}
	if spent := srv.BudgetSpent("alice"); spent != 1 {
		t.Fatalf("spent = %d after repeats, want 1", spent)
	}
	// A batch repeating one fresh query spends a single unit.
	if _, err := o.Answer(ctx, [][]int{{4}, {4}, {4}}); err != nil {
		t.Fatal(err)
	}
	if spent := srv.BudgetSpent("alice"); spent != 2 {
		t.Fatalf("spent = %d, want 2", spent)
	}
}

// TestCacheKeyedByBackend: the answer cache keys on the backend as well as
// the index set, so one query asked of exact and then of laplace gets
// each backend's own answer and is charged on each.
func TestCacheKeyedByBackend(t *testing.T) {
	const seed, n = 53, 32
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: seed, N: n, Budget: 10})
	q := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}
	x := remote.Dataset(seed, n, 0.5)
	want := map[string]query.Oracle{
		"exact":   &query.Exact{X: x},
		"laplace": &query.StickyLaplace{X: x, Eps: 1, Seed: seed},
	}
	answers := map[string]float64{}
	for _, backend := range []string{"exact", "laplace", "exact", "laplace"} {
		got, err := dialAnalyst(t, ts.URL, backend, "alice").Answer(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := want[backend].Answer(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != exp[0] {
			t.Fatalf("%s answered %v, want its own %v", backend, got[0], exp[0])
		}
		answers[backend] = got[0]
	}
	if answers["exact"] == answers["laplace"] {
		t.Fatalf("exact and laplace both answered %v", answers["exact"])
	}
	if spent := srv.BudgetSpent("alice"); spent != 2 {
		t.Fatalf("spent = %d, want 2: one charge per backend, repeats free", spent)
	}
}

func TestSentinelMappings(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 2, Threshold: 4})
	// Malformed queries map to query.ErrInvalidQuery.
	o, err := remote.Dial(ctx, ts.URL, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Answer(ctx, [][]int{{0, 0}}); !errors.Is(err, query.ErrInvalidQuery) {
		t.Errorf("duplicate index: got %v, want ErrInvalidQuery", err)
	}
	if _, err := o.Answer(ctx, [][]int{{99}}); !errors.Is(err, query.ErrInvalidQuery) {
		t.Errorf("out of range: got %v, want ErrInvalidQuery", err)
	}
	// Low-count suppression on the diffix backend maps to ErrSuppressed.
	opts := fastOpts()
	opts.Backend = "diffix"
	od, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := od.Answer(ctx, [][]int{{0, 1}}); !errors.Is(err, diffix.ErrSuppressed) {
		t.Errorf("small query: got %v, want ErrSuppressed", err)
	}
	// Unknown backends fail loudly at query time.
	opts.Backend = "nonesuch"
	on, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.Answer(ctx, [][]int{{0}}); err == nil || errors.Is(err, query.ErrInvalidQuery) {
		t.Errorf("unknown backend: got %v, want a non-sentinel refusal", err)
	}
}

// TestRemoteReconstructionInvariance is the acceptance criterion: the E02
// reconstruction table produced against a qserver (exact backend) is
// byte-identical to the one produced against the in-process exact oracle
// over the same regenerated dataset at the same seed.
func TestRemoteReconstructionInvariance(t *testing.T) {
	const (
		seed = int64(42)
		n    = 32
		p    = 0.5
	)
	_, ts := newTestServer(t, remote.ServerConfig{N: n, Seed: seed, P: p})
	o, err := remote.Dial(ctx, ts.URL, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	truth := remote.Dataset(seed, n, p)
	remoteTable, err := experiments.E02OverOracle(ctx, o, truth, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	localTable, err := experiments.E02OverOracle(ctx, &query.Exact{X: truth}, truth, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if remoteTable.String() != localTable.String() {
		t.Fatalf("remote and in-process tables differ:\nremote:\n%s\nlocal:\n%s", remoteTable, localTable)
	}
}

// TestRemoteStreamInvariance is the anytime analogue of
// TestRemoteReconstructionInvariance: streaming the workload chunk by
// chunk against a live qserver must land on the same final
// reconstruction — byte-identical — as streaming against an in-process
// exact oracle, and the milestone table must match too.
func TestRemoteStreamInvariance(t *testing.T) {
	const (
		seed = int64(42)
		n    = 32
	)
	_, ts := newTestServer(t, remote.ServerConfig{N: n, Seed: seed, P: 0.5})
	o, err := remote.Dial(ctx, ts.URL, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	truth := remote.Dataset(seed, n, 0.5)
	remoteTab, remoteRes, err := experiments.E02StreamOverOracle(ctx, o, truth, seed)
	if err != nil {
		t.Fatal(err)
	}
	localTab, localRes, err := experiments.E02StreamOverOracle(ctx, &query.Exact{X: truth}, truth, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(remoteRes.Final) != n || len(localRes.Final) != n {
		t.Fatalf("final lengths %d/%d", len(remoteRes.Final), len(localRes.Final))
	}
	for i := range remoteRes.Final {
		if remoteRes.Final[i] != localRes.Final[i] {
			t.Fatalf("bit %d: remote stream %d, local stream %d", i, remoteRes.Final[i], localRes.Final[i])
		}
	}
	if remoteTab.String() != localTab.String() {
		t.Fatalf("remote and local milestone tables differ:\nremote:\n%s\nlocal:\n%s", remoteTab, localTab)
	}
	if remoteRes.FinalAccuracy < 0.999 {
		t.Errorf("final accuracy = %v against the exact backend", remoteRes.FinalAccuracy)
	}
}
