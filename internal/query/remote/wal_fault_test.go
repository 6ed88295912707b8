package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"singlingout/internal/obs"
)

// faultFile is the WAL's file with one injected failure: the writes-th
// Write puts the first half of its line on disk and fails with ENOSPC,
// and the syncs-th Sync fails with EIO after the write it follows
// reached the file. Zero injects nothing.
type faultFile struct {
	*os.File
	writes, syncs int
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.writes--; f.writes == 0 {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.syncs--; f.syncs == 0 {
		return syscall.EIO
	}
	return f.File.Sync()
}

// faultServer starts a server on cfg, whose WAL file fails as f says.
func faultServer(t *testing.T, cfg ServerConfig, f *faultFile) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	f.File = srv.ledger.wal.f.(*os.File)
	srv.ledger.wal.f = f
	return srv
}

// ask sends analyst a's batch of the one query {i} and returns the
// response's status and body.
func ask(srv *Server, i int) (int, string) {
	return post(srv, "exact", "a", fmt.Sprintf("[[%d]]", i))
}

// post sends analyst's batch of queries, a JSON array of index arrays,
// to backend as the client writes it, and returns the response's status
// and body.
func post(srv *Server, backend, analyst, queries string) (int, string) {
	var sets [][]int
	if err := json.Unmarshal([]byte(queries), &sets); err != nil {
		panic(err)
	}
	qs, err := bitmaps(srv.cfg.N, sets)
	if err != nil {
		panic(err)
	}
	return postBitmaps(srv, backend, analyst, qs)
}

// postBitmaps sends analyst's batch of bitmap queries qs to backend and
// returns the response's status and body.
func postBitmaps(srv *Server, backend, analyst string, qs [][]byte) (int, string) {
	body := appendQueryRequest(nil, QueryRequest{V: V, Analyst: analyst, Queries: qs})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/"+backend, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// getLedger returns what GET /v1/ledger serves.
func getLedger(t *testing.T, srv *Server) LedgerResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ledger", nil))
	var lr LedgerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/ledger: %d %s (%v)", rec.Code, rec.Body, err)
	}
	return lr
}

// spendUntilStopped spends one fresh query per batch: the first batch
// succeeds, the second hits the injected fault, and the third must fail
// too, as the WAL stopped at the second: both with the 500
// ledger_stopped, naming the WAL once. A cached answer is still served.
func spendUntilStopped(t *testing.T, srv *Server) {
	t.Helper()
	if code, body := ask(srv, 0); code != http.StatusOK {
		t.Fatalf("first spend: %d %s", code, body)
	}
	for i := 1; i <= 2; i++ {
		code, body := ask(srv, i)
		if code != http.StatusInternalServerError || !strings.Contains(body, `"code":"ledger_stopped"`) || strings.Count(body, "ledger wal") != 1 {
			t.Fatalf("spend %d after the fault: %d %s, want a 500 ledger_stopped naming the ledger wal once", i+1, code, body)
		}
	}
	if code, body := ask(srv, 0); code != http.StatusOK {
		t.Fatalf("cached batch after the fault: %d %s", code, body)
	}
}

// TestWALShortWriteStops: an append that puts half its line on disk and
// fails stops the WAL. Had the next spend been appended, it would glue
// onto the fragment in one line that replay drops as a torn tail, and a
// restart would refund it. Stopped, the log replays to the live total,
// and so does a restart.
func TestWALShortWriteStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	srv := faultServer(t, ServerConfig{N: 16, P: 0.5, Seed: 1, WALPath: path}, &faultFile{writes: 2})
	spendUntilStopped(t, srv)
	live := srv.BudgetSpent("a")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := ReplayLedger(entries)
	if err != nil {
		t.Fatalf("the WAL does not replay: %v", err)
	}
	if totals["a"] != live {
		t.Fatalf("the WAL replays to %d spent, the live ledger charged %d", totals["a"], live)
	}
	again, err := NewServer(ServerConfig{N: 16, P: 0.5, Seed: 1, WALPath: path})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer again.Close()
	if got := again.BudgetSpent("a"); got != live {
		t.Fatalf("the restarted server remembers %d spent, the live ledger charged %d", got, live)
	}
}

// TestClientDoesNotRetryStoppedWAL: the 500 ledger_stopped of a server
// whose WAL stopped is final. A client allowed three retries sends one
// POST for the batch that stops the WAL and one for the next, never
// backs off, and reports the WAL once.
func TestClientDoesNotRetryStoppedWAL(t *testing.T) {
	srv := faultServer(t, ServerConfig{N: 16, P: 0.5, Seed: 1, WALPath: filepath.Join(t.TempDir(), "ledger.wal")}, &faultFile{writes: 2})
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	o, err := Dial(context.Background(), ts.URL, Options{Retries: 3, Backoff: time.Millisecond, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Answer(context.Background(), [][]int{{0}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		before := posts.Load()
		_, err := o.Answer(context.Background(), [][]int{{i}})
		if err == nil || !strings.Contains(err.Error(), "ledger_stopped") || strings.Count(err.Error(), "ledger wal") != 1 {
			t.Fatalf("answer %d after the fault: %v, want ledger_stopped naming the ledger wal once", i, err)
		}
		if n := posts.Load() - before; n != 1 {
			t.Errorf("answer %d after the fault: %d POSTs, want 1", i, n)
		}
	}
	if n := reg.Snapshot().Counters[MetricClientRetries]; n != 0 {
		t.Errorf("remote.retries = %d, want 0", n)
	}
}

// TestWALFailedSyncStops: an append whose fsync fails has its whole line
// on disk while the ledger stays unmoved. Had the next spend been
// appended, its cumulative would contradict that line and replay would
// refuse the log. Stopped, the log replays, charging at least what the
// live ledger charged: the failed spend replays as an over-charge. (A
// failed refund replays one refund below; FuzzLedgerModel covers it.)
func TestWALFailedSyncStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	srv := faultServer(t, ServerConfig{N: 16, P: 0.5, Seed: 1, WALPath: path, WALSync: true}, &faultFile{syncs: 2})
	spendUntilStopped(t, srv)
	live := srv.BudgetSpent("a")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := ReplayLedger(entries)
	if err != nil {
		t.Fatalf("the WAL does not replay: %v", err)
	}
	if totals["a"] < live {
		t.Fatalf("the WAL replays to %d spent, under the %d the live ledger charged", totals["a"], live)
	}
}

// TestWALCrashPointSweep cuts a recorded WAL at every byte offset, as a
// crash mid-append may leave it, and restarts a server on each cut. The
// server must start and serve exactly the entries whose lines, not
// counting their '\n', end at or before the cut: a whole line that lost
// only its newline is kept, any shorter fragment dropped. One more spend
// after the restart must then read back after that prefix and replay.
func TestWALCrashPointSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{N: 16, P: 0.5, Seed: 1, Budget: 4, WALPath: filepath.Join(dir, "ledger.wal")}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two analysts' spends, a spend refunded when diffix suppresses its
	// two-user query, and a batch denied over bob's budget.
	for _, r := range []struct {
		backend, analyst, queries string
		code                      int
	}{
		{"exact", "alice", "[[0],[1]]", http.StatusOK},
		{"exact", "bob", "[[2]]", http.StatusOK},
		{"diffix", "alice", "[[3,4]]", http.StatusUnprocessableEntity},
		{"exact", "bob", "[[5],[6],[7],[8]]", http.StatusTooManyRequests},
	} {
		if code, body := post(srv, r.backend, r.analyst, r.queries); code != r.code {
			t.Fatalf("%s %s %s: %d %s, want %d", r.analyst, r.backend, r.queries, code, body, r.code)
		}
	}
	live := getLedger(t, srv).Entries
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, e := range live {
		ops = append(ops, e.Op)
	}
	if want := []string{LedgerSpend, LedgerSpend, LedgerSpend, LedgerRefund, LedgerDeny}; !slices.Equal(ops, want) {
		t.Fatalf("recorded ops %v, want %v", ops, want)
	}
	data, err := os.ReadFile(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // ends[i]: the offset just past entry i's line, before its '\n'
	for off, b := range data {
		if b == '\n' {
			ends = append(ends, off)
		}
	}
	if len(ends) != len(live) || len(data) != ends[len(ends)-1]+1 {
		t.Fatalf("%d lines for %d entries in %q", len(ends), len(live), data)
	}

	cut := cfg
	cut.WALPath = filepath.Join(dir, "cut.wal")
	for off := 0; off <= len(data); off++ {
		if err := os.WriteFile(cut.WALPath, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(cut)
		if err != nil {
			t.Fatalf("cut at %d: the server does not start: %v", off, err)
		}
		kept := 0
		for kept < len(ends) && ends[kept] <= off {
			kept++
		}
		want := live[:kept]
		totals, err := ReplayLedger(want)
		if err != nil {
			t.Fatal(err)
		}
		if lr := getLedger(t, srv); !slices.Equal(lr.Entries, want) || !maps.Equal(lr.Totals, totals) {
			t.Fatalf("cut at %d: ledger %+v totals %v, want the first %d entries %+v totals %v", off, lr.Entries, lr.Totals, kept, want, totals)
		}

		if code, body := post(srv, "exact", "alice", "[[9]]"); code != http.StatusOK {
			t.Fatalf("cut at %d: spend after the restart: %d %s", off, code, body)
		}
		after := getLedger(t, srv).Entries
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if len(after) != kept+1 || !slices.Equal(after[:kept], want) {
			t.Fatalf("cut at %d: ledger after the spend %+v, want the first %d entries and one more", off, after, kept)
		}
		next := after[kept]
		seq := int64(1)
		if kept > 0 {
			seq = want[kept-1].Seq + 1
		}
		if next.Seq != seq || next.Analyst != "alice" || next.Op != LedgerSpend || next.Cost != 1 || next.Cumulative != totals["alice"]+1 {
			t.Fatalf("cut at %d: the new entry is %+v, want alice's spend of 1 at seq %d, cumulative %d", off, next, seq, totals["alice"]+1)
		}
		read, err := ReadWAL(cut.WALPath)
		if err != nil {
			t.Fatalf("cut at %d: reading the WAL after the spend: %v", off, err)
		}
		if !slices.Equal(read, after) {
			t.Fatalf("cut at %d: the WAL reads %+v, want %+v", off, read, after)
		}
		if _, err := ReplayLedger(read); err != nil {
			t.Fatalf("cut at %d: the WAL after the spend does not replay: %v", off, err)
		}
	}
}

// TestWALConcurrentSpendsInSeqOrder: analysts spending at once still
// leave a log whose lines are in sequence order, because one mutex
// assigns each entry's sequence number and appends its line. The log
// must read back as exactly the ledger the server served.
func TestWALConcurrentSpendsInSeqOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	srv, err := NewServer(ServerConfig{N: 64, P: 0.5, Seed: 1, Shards: 4, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	const analysts, batches = 4, 16
	var wg sync.WaitGroup
	for a := 0; a < analysts; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if code, body := post(srv, "exact", fmt.Sprint("analyst", a), fmt.Sprintf("[[%d]]", a*batches+b)); code != http.StatusOK {
					t.Errorf("analyst %d batch %d: %d %s", a, b, code, body)
				}
			}
		}(a)
	}
	wg.Wait()
	served := getLedger(t, srv).Entries
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if len(served) != analysts*batches {
		t.Fatalf("served %d entries, want %d", len(served), analysts*batches)
	}
	read, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(read, served) {
		t.Fatalf("the WAL reads %+v, the server served %+v", read, served)
	}
}
