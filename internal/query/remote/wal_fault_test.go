package remote

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
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

// faultServer starts a one-shard server with a WAL at path whose file
// fails as f says.
func faultServer(t *testing.T, path string, sync bool, f *faultFile) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{N: 16, P: 0.5, Seed: 1, WALPath: path, WALSync: sync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	f.File = srv.wal.f.(*os.File)
	srv.wal.f = f
	return srv
}

// ask sends analyst a's batch of the one query {i} and returns the
// response's status and body.
func ask(srv *Server, i int) (int, string) {
	body := fmt.Sprintf(`{"v":%d,"analyst":"a","queries":[[%d]]}`, V, i)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/exact", bytes.NewReader([]byte(body))))
	return rec.Code, rec.Body.String()
}

// spendUntilStopped spends one fresh query per batch: the first batch
// succeeds, the second hits the injected fault, and the third must fail
// too, as the WAL stopped at the second. A cached answer is still
// served.
func spendUntilStopped(t *testing.T, srv *Server) {
	t.Helper()
	if code, body := ask(srv, 0); code != http.StatusOK {
		t.Fatalf("first spend: %d %s", code, body)
	}
	for i := 1; i <= 2; i++ {
		code, body := ask(srv, i)
		if code != http.StatusInternalServerError || !bytes.Contains([]byte(body), []byte(`"code":"internal"`)) || !bytes.Contains([]byte(body), []byte("ledger wal")) {
			t.Fatalf("spend %d after the fault: %d %s, want a 500 internal naming the ledger wal", i+1, code, body)
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
	srv := faultServer(t, path, false, &faultFile{writes: 2})
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

// TestWALFailedSyncStops: an append whose fsync fails has its whole line
// on disk while the ledger stays unmoved. Had the next spend been
// appended, its cumulative would contradict that line and replay would
// refuse the log. Stopped, the log replays, charging at least what the
// live ledger charged: an over-charge, never an under-charge.
func TestWALFailedSyncStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	srv := faultServer(t, path, true, &faultFile{syncs: 2})
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
