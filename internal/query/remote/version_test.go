package remote_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/query/remote"
)

func getMeta(t *testing.T, url string) (remote.Meta, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m remote.Meta
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
	}
	return m, resp.StatusCode
}

func TestMetaVersionNegotiation(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 31, Shards: 2})

	// Topology and overload semantics are always advertised, and query
	// parameters such as ?v=1 change nothing.
	for _, path := range []string{"/v1/meta", "/v1/meta?v=1"} {
		m, status := getMeta(t, ts.URL+path)
		if status != http.StatusOK || m.V != remote.V || m.Shards != 2 || m.QueueDepth != 64 || m.RetryAfterMs <= 0 {
			t.Fatalf("GET %s = %+v (status %d)", path, m, status)
		}
	}

	// Dial sees the topology.
	o, err := remote.Dial(ctx, ts.URL, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if o.Meta().V != remote.V || o.Meta().Shards != 2 {
		t.Fatalf("dialed meta %+v, want v%d with shards", o.Meta(), remote.V)
	}
}

// TestPostVersionEcho: the server answers a request of version V in V
// and refuses every other version with a typed error, a v2 body of index
// lists included.
func TestPostVersionEcho(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 37})
	post := func(v int) (remote.QueryResponse, remote.ErrorResponse, int) {
		t.Helper()
		body, _ := json.Marshal(remote.QueryRequest{V: v, Queries: bitmaps(32, []int{0})})
		resp, err := http.Post(ts.URL+"/v1/query/exact", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr remote.QueryResponse
		var er remote.ErrorResponse
		payload := new(bytes.Buffer)
		payload.ReadFrom(resp.Body)
		json.Unmarshal(payload.Bytes(), &qr)
		json.Unmarshal(payload.Bytes(), &er)
		return qr, er, resp.StatusCode
	}
	if qr, _, status := post(remote.V); status != http.StatusOK || qr.V != remote.V {
		t.Fatalf("v%d request answered with status %d v%d, want 200 v%d", remote.V, status, qr.V, remote.V)
	}
	for _, v := range []int{remote.V - 1, remote.V + 1, 0} {
		if _, er, status := post(v); status != http.StatusBadRequest || er.Err.Code != remote.CodeUnsupportedVersion {
			t.Fatalf("v%d request: status %d code %q, want 400 %q", v, status, er.Err.Code, remote.CodeUnsupportedVersion)
		}
	}
	v2 := `{"v":2,"queries":[[0,3]]}`
	if status, code := postRaw(t, ts.URL, v2); status != http.StatusBadRequest || code != remote.CodeUnsupportedVersion {
		t.Fatalf("%s: status %d code %q, want 400 %q", v2, status, code, remote.CodeUnsupportedVersion)
	}
}

// TestDialRefusesFutureServer: a server advertising any wire version but
// V, the next one or the retired previous one, fails the dial instead of
// being misread.
func TestDialRefusesFutureServer(t *testing.T) {
	for _, v := range []int{remote.V + 1, remote.V - 1} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(remote.Meta{V: v, N: 16, Seed: 1, P: 0.5, MaxBatch: 64})
		}))
		_, err := remote.Dial(ctx, srv.URL, fastOpts())
		srv.Close()
		if err == nil {
			t.Fatalf("Dial should refuse a server speaking wire version %d", v)
		}
	}
}

// TestDialRefusesNonPositiveMaxBatch: a server advertising no usable
// batch limit fails the dial, as a non-positive dataset size does;
// accepting it would leave Answer posting empty chunks forever.
func TestDialRefusesNonPositiveMaxBatch(t *testing.T) {
	for _, maxBatch := range []int{0, -1} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(remote.Meta{V: remote.V, N: 16, Seed: 1, P: 0.5, Backends: []string{"exact"}, MaxBatch: maxBatch})
		}))
		_, err := remote.Dial(ctx, srv.URL, fastOpts())
		srv.Close()
		if err == nil {
			t.Fatalf("Dial should refuse max_batch %d", maxBatch)
		}
	}
}

// TestGetRetriesTransient: GETs (meta, ledger, trace) share the POST
// path's retry treatment — transient 5xx responses are retried with
// backoff and counted in remote.retries.
func TestGetRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(remote.Meta{
			V: remote.V, N: 16, Seed: 1, P: 0.5, Backends: []string{"exact"}, MaxBatch: 64, Shards: 1,
		})
	}))
	defer flaky.Close()
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	opts := fastOpts()
	opts.Registry = reg
	o, err := remote.Dial(ctx, flaky.URL, opts)
	if err != nil {
		t.Fatalf("Dial should outlast two transient failures: %v", err)
	}
	if o.Meta().V != remote.V {
		t.Fatalf("dialed v%d, want %d", o.Meta().V, remote.V)
	}
	if got := reg.Counter(remote.MetricClientRetries).Value(); got != 2 {
		t.Fatalf("remote.retries = %d, want 2", got)
	}
}
