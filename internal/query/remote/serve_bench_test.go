package remote_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

// Sinks keep the benchmarked handler calls from being optimized away.
var (
	sinkStatus int
	sinkBytes  int
)

// The serving benchmark's request shape: 32-query batches of random
// subsets of n = 256.
const serveN, serveBatch = 256, 32

// newServeHandler is the handler of a 2-shard, 2-worker server with a
// WAL and an enabled registry, as the serving benchmark runs it.
func newServeHandler(tb testing.TB) http.Handler {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	srv, err := remote.NewServer(remote.ServerConfig{
		N: serveN, P: 0.5, Seed: 1, Shards: 2, Workers: 2,
		WALPath: filepath.Join(tb.TempDir(), "ledger.wal"), Registry: reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv.Handler()
}

// serveBodies returns count request bodies, each a batch of random
// subsets drawn from seed.
func serveBodies(tb testing.TB, seed int64, count int) [][]byte {
	rng := par.RNG(seed, 0)
	out := make([][]byte, count)
	for i := range out {
		body, err := json.Marshal(remote.QueryRequest{V: remote.V, Analyst: "analyst0", Queries: bitmaps(serveN, query.RandomSubsets(rng, serveN, serveBatch)...)})
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = body
	}
	return out
}

// bitmaps writes each set as the wire does over n records: bit i%8 of
// byte i/8 is set for each index i in the set.
func bitmaps(n int, sets ...[]int) [][]byte {
	out := make([][]byte, len(sets))
	for j, set := range sets {
		out[j] = make([]byte, (n+7)/8)
		for _, i := range set {
			out[j][i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// post sends one body through h, without a network, and fails tb unless
// it is answered.
func post(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/exact", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	sinkStatus, sinkBytes = rec.Code, rec.Body.Len()
}

// BenchmarkServeQuery times one POST /v1/query/exact through
// Server.Handler(), without a network, on the serving benchmark's
// request shape against newServeHandler's server. cached repeats
// batches the server has answered, so every answer comes from the
// cache; fresh sends never-seen batches, so every request spends,
// appends to the WAL and runs the backend.
func BenchmarkServeQuery(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		h := newServeHandler(b)
		pool := serveBodies(b, 1, 200)
		for _, body := range pool {
			post(b, h, body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, pool[i%len(pool)])
		}
	})
	b.Run("fresh", func(b *testing.B) {
		h := newServeHandler(b)
		fresh := serveBodies(b, 2, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, fresh[i])
		}
	})
}

// TestServeQueryCachedAllocs bounds the allocations of a cached batch on
// the benchmark's request shape, the request and recorder included: the
// batch's one key string and the cache pass each allocate a fixed number
// of times, and the decoder's bitmap arena a few more as it grows. The
// bound, not equality: 43 allocations plain, 52 to 54 under the race
// detector.
func TestServeQueryCachedAllocs(t *testing.T) {
	h := newServeHandler(t)
	body := serveBodies(t, 1, 1)[0]
	post(t, h, body)
	if allocs := testing.AllocsPerRun(50, func() { post(t, h, body) }); allocs > 60 {
		t.Fatalf("a cached %d-query batch allocates %v times, want at most 60", serveBatch, allocs)
	}
}

// TestServeQueryFreshAllocs bounds the allocations of a fresh batch on
// the benchmark's request shape, the request and recorder included: the
// spend path adds the ledger entry and its WAL line, the expansion of the
// misses into index lists, one backend call per pool worker and the
// cache inserts. The bound, not equality: 71 allocations plain, 83 or 84
// under the race detector; 209 plain (220 to 222) while each miss was
// its own one-query backend call, each builtin backend checked every
// query over 16 indices against a scratch bitmap and each fresh key was
// copied into a string of its own.
func TestServeQueryFreshAllocs(t *testing.T) {
	const runs = 50
	h := newServeHandler(t)
	bodies := serveBodies(t, 2, runs+1) // AllocsPerRun calls once more to warm up
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() { post(t, h, bodies[i]); i++ }); allocs > 90 {
		t.Fatalf("a fresh %d-query batch allocates %v times, want at most 90", serveBatch, allocs)
	}
}

// TestFalseContentLengthCostsLittle: the server sizes its read buffer
// from a request's Content-Length only up to a fixed hint, so a header
// that declares 64 MiB for a small body costs a small allocation, not
// the declared size.
func TestFalseContentLengthCostsLittle(t *testing.T) {
	h := newServeHandler(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/query/exact", bytes.NewReader(serveBodies(t, 1, 1)[0]))
	req.ContentLength = 64 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("a request declaring 64 MiB allocated %d bytes, want at most 8 MiB", got)
	}
}
