package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

// doubleBackend is a custom registry entry: exact answers scaled by two.
// Deterministic per canonical query, as the Backend contract requires.
type doubleBackend struct{}

func (doubleBackend) Name() string { return "double" }
func (doubleBackend) Open(_ remote.ServerConfig, x []int64) (query.Oracle, error) {
	return scaledOracle{inner: &query.Exact{X: x}}, nil
}

type scaledOracle struct{ inner query.Oracle }

func (s scaledOracle) N() int { return s.inner.N() }
func (s scaledOracle) Answer(ctx context.Context, qs [][]int) ([]float64, error) {
	a, err := s.inner.Answer(ctx, qs)
	if err != nil {
		return nil, err
	}
	for i := range a {
		a[i] *= 2
	}
	return a, nil
}

type renamedBackend struct {
	name string
	remote.Backend
}

func (r renamedBackend) Name() string { return r.name }

func TestCustomBackendRegistration(t *testing.T) {
	cfg := remote.ServerConfig{
		Seed:     13,
		Backends: append(remote.Builtins(), doubleBackend{}),
	}
	_, ts := newTestServer(t, cfg)
	exact := dialAnalyst(t, ts.URL, "exact", "a")
	double := dialAnalyst(t, ts.URL, "double", "a")
	if got := exact.Meta().Backends; len(got) != 4 || got[0] != "diffix" || got[1] != "double" {
		t.Fatalf("advertised backends = %v", got)
	}
	batch := [][]int{{0, 1, 2}, {3}, {4, 5}}
	base, err := exact.Answer(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := double.Answer(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if twice[i] != 2*base[i] {
			t.Fatalf("double[%d] = %v, want %v", i, twice[i], 2*base[i])
		}
	}
}

func TestBackendRegistryValidation(t *testing.T) {
	base := remote.ServerConfig{N: 16, P: 0.5}
	dup := base
	dup.Backends = []remote.Backend{doubleBackend{}, doubleBackend{}}
	if _, err := remote.NewServer(dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate backend name: err = %v", err)
	}
	bad := base
	bad.Backends = []remote.Backend{renamedBackend{name: "Not-A-Name", Backend: doubleBackend{}}}
	if _, err := remote.NewServer(bad); err == nil || !strings.Contains(err.Error(), "must match") {
		t.Fatalf("invalid backend name: err = %v", err)
	}
	empty := base
	empty.Backends = []remote.Backend{}
	// nil means Builtins(); an explicitly empty registry is the zero-value
	// nil again, so it also falls back — assert the builtin set survives.
	srv, err := remote.NewServer(empty)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Meta().Backends; len(got) != 3 {
		t.Fatalf("empty registry should fall back to builtins, got %v", got)
	}
}

// shortBackend's oracle drops the last answer of every call: a backend
// that breaks the one-answer-per-query contract.
type shortBackend struct{}

func (shortBackend) Name() string { return "short" }
func (shortBackend) Open(_ remote.ServerConfig, x []int64) (query.Oracle, error) {
	return shortOracle{&query.Exact{X: x}}, nil
}

type shortOracle struct{ query.Oracle }

func (s shortOracle) Answer(ctx context.Context, qs [][]int) ([]float64, error) {
	a, err := s.Oracle.Answer(ctx, qs)
	if err != nil || len(a) == 0 {
		return a, err
	}
	return a[:len(a)-1], nil
}

// TestShortBackendCallRefunds: a backend call that returns fewer answers
// than it was asked fails the batch as internal, refunds the whole
// reservation and caches nothing.
func TestShortBackendCallRefunds(t *testing.T) {
	const n = 16
	srv, err := remote.NewServer(remote.ServerConfig{N: n, P: 0.5, Workers: 2, Backends: []remote.Backend{shortBackend{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, err := json.Marshal(remote.QueryRequest{V: remote.V, Analyst: "fay", Queries: bitmaps(n, []int{0}, []int{1}, []int{2})})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/short", bytes.NewReader(body)))
	var er remote.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("status %d, undecodable body %q", rec.Code, rec.Body)
	}
	// Two workers: shares {0} and {1, 2}; the first share's call decides.
	if rec.Code != http.StatusInternalServerError || er.Err.Code != remote.CodeInternal || !strings.Contains(er.Err.Message, "returned 0 answers for 1 queries") {
		t.Fatalf("got %d %s %q, want 500 %s naming the short call", rec.Code, er.Err.Code, er.Err.Message, remote.CodeInternal)
	}
	entries, _ := srv.Ledger("fay")
	if len(entries) != 2 || entries[0].Op != "spend" || entries[0].Cost != 3 || entries[1].Op != "refund" || entries[1].Cost != 3 {
		t.Fatalf("ledger %+v, want a spend of 3, then its refund", entries)
	}
	if srv.BudgetSpent("fay") != 0 || srv.CacheLen() != 0 {
		t.Fatalf("the failed batch spent %d and cached %d answers", srv.BudgetSpent("fay"), srv.CacheLen())
	}
}

// blockingBackend parks every Answer call until release is closed,
// signalling entry on entered — the deterministic way to hold a server's
// active slot while the test probes its overload behavior.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (blockingBackend) Name() string { return "block" }
func (b blockingBackend) Open(_ remote.ServerConfig, x []int64) (query.Oracle, error) {
	return &blockingOracle{n: len(x), entered: b.entered, release: b.release}, nil
}

type blockingOracle struct {
	n       int
	entered chan struct{}
	release chan struct{}
}

func (o *blockingOracle) N() int { return o.n }
func (o *blockingOracle) Answer(ctx context.Context, qs [][]int) ([]float64, error) {
	select {
	case o.entered <- struct{}{}:
	default:
	}
	select {
	case <-o.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return make([]float64, len(qs)), nil
}

// TestOverloadShedsTyped drives the server into deterministic overload
// (one active slot, no waiting room, a backend that blocks) and checks
// both halves of the contract: the wire carries a typed CodeOverloaded
// refusal with retry hints, and the client surfaces query.ErrOverloaded
// once retries are exhausted. Shedding is visible in qserver.shed.
//
// The gate is one per server, whatever the shard count: at 4 shards the
// shed requests come from carol, an analyst that a gate split by
// FNV-1a hash of the analyst id would put on another shard than alice
// and admit. Every request has a timeout, so such a split fails the
// test instead of hanging it.
func TestOverloadShedsTyped(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		analyst string // sends the requests that must be shed
	}{{1, "alice"}, {4, "carol"}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			testOverloadSheds(t, tc.shards, tc.analyst)
		})
	}
}

func testOverloadSheds(t *testing.T, shards int, analyst string) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	bb := blockingBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	cfg := remote.ServerConfig{
		Seed:          29,
		MaxConcurrent: 1,
		Shards:        shards,
		QueueDepth:    -1, // no waiting room: second request sheds immediately
		Backends:      []remote.Backend{bb},
		Registry:      reg,
	}
	_, ts := newTestServer(t, cfg)
	// Release on any exit path — a Fatalf before the explicit release must
	// not leave the parked request holding the test server open forever.
	// Cleanups run last-registered first, so this one runs before the
	// test server's Close, which waits for every request in flight.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(bb.release) }) }
	t.Cleanup(release)
	client := &http.Client{Timeout: 5 * time.Second}

	first := dialAnalyst(t, ts.URL, "block", "alice")
	done := make(chan error, 1)
	go func() {
		_, err := first.Answer(ctx, [][]int{{0}})
		done <- err
	}()
	<-bb.entered // the lone active slot is now held

	// Raw wire view of the shed.
	resp, err := client.Post(ts.URL+"/v1/query/block", "application/json",
		strings.NewReader(`{"v":3,"analyst":"`+analyst+`","queries":["AgAAAA=="]}`)) // {1} over n = 32
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response is missing the Retry-After header")
	}
	var er remote.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Err.Code != remote.CodeOverloaded || er.Err.RetryAfterMs <= 0 {
		t.Fatalf("shed body = %+v, want code %q with a positive retry hint", er.Err, remote.CodeOverloaded)
	}

	// Client view: retries disabled, the sentinel surfaces directly.
	opts := fastOpts()
	opts.Backend = "block"
	opts.Analyst = analyst
	opts.Retries = -1
	opts.Client = client
	second, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Answer(ctx, [][]int{{2}}); !errors.Is(err, query.ErrOverloaded) {
		t.Fatalf("shed client error = %v, want query.ErrOverloaded", err)
	}

	if got := reg.Counter(remote.MetricShed).Value(); got != 2 {
		t.Fatalf("qserver.shed = %d, want 2", got)
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("the admitted request should complete after release: %v", err)
	}

	// With the slot free again, a retrying client succeeds.
	opts.Retries = 3
	third, err := remote.Dial(ctx, ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := third.Answer(ctx, [][]int{{3}}); err != nil {
		t.Fatalf("post-overload request failed: %v", err)
	}
}
