package remote_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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

// BenchmarkServeQuery times one POST /v1/query/exact through
// Server.Handler(), without a network, on the serving benchmark's
// request shape: a 32-query batch of random subsets of n = 256, against
// a 2-shard, 2-worker server with a WAL and an enabled registry.
// cached repeats batches the server has answered, so every answer comes
// from the cache; fresh sends never-seen batches, so every request
// spends, appends to the WAL and runs the backend.
func BenchmarkServeQuery(b *testing.B) {
	const n, batch = 256, 32
	newServer := func(b *testing.B) http.Handler {
		reg := obs.NewRegistry()
		reg.SetEnabled(true)
		srv, err := remote.NewServer(remote.ServerConfig{
			N: n, P: 0.5, Seed: 1, Shards: 2, Workers: 2,
			WALPath: filepath.Join(b.TempDir(), "ledger.wal"), Registry: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		return srv.Handler()
	}
	bodies := func(seed int64, count int) [][]byte {
		rng := par.RNG(seed, 0)
		out := make([][]byte, count)
		for i := range out {
			body, err := json.Marshal(remote.QueryRequest{V: remote.V, Analyst: "analyst0", Queries: query.RandomSubsets(rng, n, batch)})
			if err != nil {
				b.Fatal(err)
			}
			out[i] = body
		}
		return out
	}
	post := func(b *testing.B, h http.Handler, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/exact", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		sinkStatus, sinkBytes = rec.Code, rec.Body.Len()
	}

	b.Run("cached", func(b *testing.B) {
		h := newServer(b)
		pool := bodies(1, 200)
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
		h := newServer(b)
		fresh := bodies(2, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, fresh[i])
		}
	})
}
