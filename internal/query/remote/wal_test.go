package remote_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

// dialAnalyst dials ts as one analyst against one backend with fast
// retries.
func dialAnalyst(t *testing.T, url, backend, analyst string) *remote.Oracle {
	t.Helper()
	opts := fastOpts()
	opts.Backend = backend
	opts.Analyst = analyst
	o, err := remote.Dial(ctx, url, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestWALRestartKeepsSpentBudget is the restart-durability acceptance
// test: epsilon spent before a restart is still spent after it. The
// second server even runs a different shard count: shards split only
// the answer cache, so the WAL does not depend on them.
func TestWALRestartKeepsSpentBudget(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	cfg := remote.ServerConfig{Seed: 3, Budget: 8, WALPath: walPath}

	srv, ts := newTestServer(t, cfg)
	o := dialAnalyst(t, ts.URL, "laplace", "alice")
	if _, err := o.Answer(ctx, [][]int{{0}, {1}, {2}, {3}, {4}, {5}}); err != nil {
		t.Fatal(err)
	}
	if got := srv.BudgetSpent("alice"); got != 6 {
		t.Fatalf("spent %d fresh queries, want 6", got)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the WAL, under a different shard count.
	cfg.Shards = 3
	srv2, ts2 := newTestServer(t, cfg)
	if got := srv2.BudgetSpent("alice"); got != 6 {
		t.Fatalf("restarted server remembers %d spent, want 6 — a restart must never refund epsilon", got)
	}
	o2 := dialAnalyst(t, ts2.URL, "laplace", "alice")
	// 3 more fresh queries would exceed the budget of 8.
	if _, err := o2.Answer(ctx, [][]int{{6}, {7}, {8}}); !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("over-budget batch after restart: err = %v, want ErrBudgetExhausted", err)
	}
	// 2 fit exactly.
	if _, err := o2.Answer(ctx, [][]int{{6}, {7}}); err != nil {
		t.Fatal(err)
	}
	if got := srv2.BudgetSpent("alice"); got != 8 {
		t.Fatalf("spent %d after restart+spend, want 8", got)
	}

	// The on-disk history replays cleanly to the enforced state, denial
	// included.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := remote.ReadWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := remote.ReplayLedger(entries)
	if err != nil {
		t.Fatalf("WAL does not replay: %v", err)
	}
	if totals["alice"] != 8 {
		t.Fatalf("WAL replays to %d spent, want 8", totals["alice"])
	}
}

// TestWALRestartRechargesCachedQueries pins the conservative direction
// of non-persistence: the answer cache is not durable, so a query that
// was free (cached) before the restart charges budget again after it.
// Over-charging across restarts is acceptable; under-charging never is.
func TestWALRestartRechargesCachedQueries(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	cfg := remote.ServerConfig{Seed: 5, WALPath: walPath}

	srv, ts := newTestServer(t, cfg)
	o := dialAnalyst(t, ts.URL, "exact", "bob")
	batch := [][]int{{1}, {2}}
	first, err := o.Answer(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Answer(ctx, batch); err != nil { // cached: free
		t.Fatal(err)
	}
	if got := srv.BudgetSpent("bob"); got != 2 {
		t.Fatalf("spent %d before restart, want 2 (repeat was cached)", got)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, cfg)
	o2 := dialAnalyst(t, ts2.URL, "exact", "bob")
	second, err := o2.Answer(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("answer %d changed across restart: %v -> %v", i, first[i], second[i])
		}
	}
	if got := srv2.BudgetSpent("bob"); got != 4 {
		t.Fatalf("spent %d after restart re-ask, want 4 (cache is not durable, the charge repeats)", got)
	}
}

// TestWALTornTailTolerated: a crash mid-append leaves a torn final line
// (or an intact final entry that lost its newline); replay keeps the
// intact prefix and the server restarts cleanly on it. The restarted
// server repairs the tail before appending, so what it spends next
// survives the restart after that.
func TestWALTornTailTolerated(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, walPath string)
	}{
		{"torn bytes", func(t *testing.T, walPath string) {
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"seq":99,"analyst":"carol","op":"spe`); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{"missing newline", func(t *testing.T, walPath string) {
			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, bytes.TrimSuffix(raw, []byte("\n")), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "ledger.wal")
			cfg := remote.ServerConfig{Seed: 7, Budget: 10, WALPath: walPath}

			srv, ts := newTestServer(t, cfg)
			o := dialAnalyst(t, ts.URL, "exact", "carol")
			if _, err := o.Answer(ctx, [][]int{{0}, {1}, {2}}); err != nil {
				t.Fatal(err)
			}
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, walPath)

			entries, err := remote.ReadWAL(walPath)
			if err != nil {
				t.Fatalf("torn tail should be tolerated: %v", err)
			}
			if len(entries) != 1 {
				t.Fatalf("replayed %d entries, want the 1 intact one", len(entries))
			}
			srv2, ts2 := newTestServer(t, cfg)
			if got := srv2.BudgetSpent("carol"); got != 3 {
				t.Fatalf("restart over torn tail remembers %d, want 3", got)
			}

			// Spend on the repaired log, then restart again.
			o2 := dialAnalyst(t, ts2.URL, "exact", "carol")
			if _, err := o2.Answer(ctx, [][]int{{3}, {4}}); err != nil {
				t.Fatal(err)
			}
			ts2.Close()
			if err := srv2.Close(); err != nil {
				t.Fatal(err)
			}
			srv3, _ := newTestServer(t, cfg)
			if got := srv3.BudgetSpent("carol"); got != 5 {
				t.Fatalf("second restart remembers %d, want 5 — the spend after the first restart was refunded", got)
			}
		})
	}
}

// TestWALCorruptionRefusesToServe: an undecodable line in the middle of
// the log is corruption, not a torn tail, and so are two intact lines in
// the wrong order — the ledger writes its lines in sequence order, so
// the reader sorts nothing. Replay and server construction both fail
// loudly, naming the line, rather than serving from a log they cannot
// verify.
func TestWALCorruptionRefusesToServe(t *testing.T) {
	const (
		e1 = `{"seq":1,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":1}`
		e2 = `{"seq":2,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":2}`
	)
	for _, tc := range []struct{ name, content string }{
		{"mid-file garbage", e1 + "\nnot json at all\n" + e2 + "\n"},
		{"swapped lines", e2 + "\n" + e1 + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "ledger.wal")
			if err := os.WriteFile(walPath, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := remote.ReadWAL(walPath); err == nil {
				t.Fatal("a corrupt WAL must fail ReadWAL")
			}
			srv, err := remote.NewServer(remote.ServerConfig{N: 16, P: 0.5, WALPath: walPath})
			if err == nil {
				srv.Close()
				t.Fatal("a server must refuse to start on a corrupt WAL")
			}
			if !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("refusal %q does not name line 2", err)
			}
		})
	}
}

// TestWALTamperFailsReplay: a WAL whose cumulative chain has been edited
// fails the ReplayLedger cross-check at startup.
func TestWALTamperFailsReplay(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	content := `{"seq":1,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":1}
{"seq":2,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":5}
`
	if err := os.WriteFile(walPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.NewServer(remote.ServerConfig{N: 16, P: 0.5, WALPath: walPath}); err == nil {
		t.Fatal("a server must refuse a WAL whose cumulative chain does not replay")
	}
}

// TestWALRefundingHistoryRefusesToServe: a WAL whose cumulative chain
// replays cleanly but hands spent budget back — a negative-cost spend, a
// refund beyond the analyst's spend — fails NewServer instead of
// restarting the analyst with that budget returned.
func TestWALRefundingHistoryRefusesToServe(t *testing.T) {
	for name, content := range map[string]string{
		"negative spend": `{"seq":1,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":8,"cumulative":8}
{"seq":2,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":-5,"cumulative":3}
`,
		"refund beyond the spend": `{"seq":1,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":2,"cumulative":2}
{"seq":2,"analyst":"a","op":"refund","backend":"exact","query_hash":"h","cost":6,"cumulative":-4}
`,
	} {
		walPath := filepath.Join(t.TempDir(), "ledger.wal")
		if err := os.WriteFile(walPath, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := remote.NewServer(remote.ServerConfig{N: 16, P: 0.5, Budget: 8, WALPath: walPath})
		if err == nil {
			spent := srv.BudgetSpent("a")
			srv.Close()
			t.Errorf("%s: the server started with %d of 8 spent; it must refuse the WAL", name, spent)
		}
	}
}
