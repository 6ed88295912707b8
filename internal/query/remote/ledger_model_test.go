package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"singlingout/internal/diffix"
	"singlingout/internal/obs"
	"singlingout/internal/query"
)

// The model test's server: n = 16 records, so a query is a 2-byte
// bitmap, and each of three analysts may spend 6 fresh queries.
const (
	modelN      = 16
	modelBudget = 6
	modelSteps  = 64
)

var modelAnalysts = []string{"a", "b", "c"}

// Backend modes of the model test's backend.
const (
	modeAnswer   = iota // answer every query
	modeSuppress        // refuse the batch with diffix.ErrSuppressed
	modeFail            // fail the batch with a plain error
)

// modeBackend is the backend "model" and its own oracle: it answers
// each query with its size, or fails the whole call, as *mode says when
// it is called.
type modeBackend struct{ mode *int }

func (modeBackend) Name() string { return "model" }
func (b modeBackend) Open(ServerConfig, []int64) (query.Oracle, error) {
	return b, nil
}
func (modeBackend) N() int { return modelN }
func (b modeBackend) Answer(_ context.Context, qs [][]int) ([]float64, error) {
	switch *b.mode {
	case modeSuppress:
		return nil, fmt.Errorf("model backend: %w", diffix.ErrSuppressed)
	case modeFail:
		return nil, errors.New("model backend down")
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = float64(len(q))
	}
	return out, nil
}

// ledgerModel is the reference the server's ledger is checked against:
// what each analyst has been charged in memory and on disk, what the
// answers released to them cost, and which keys are cached.
type ledgerModel struct {
	live     map[string]int // the live ledger's totals
	disk     map[string]int // the totals the WAL replays to
	released map[string]int // the fresh queries of every answered batch
	cached   map[string]bool

	stopped    bool // a WAL append failed in this server lifetime
	faultIn    int  // > 0: the armed fault fires on the faultIn-th next append
	faultWhole bool // the armed fault is a failed fsync, not a short write

	entries     int           // entries /v1/ledger serves
	diskEntries int           // entries on disk that replay
	applied     int           // entries applied in this lifetime: qserver.wal_appends
	step        []LedgerEntry // entries applied by the current step
}

// outcome is what a batch answers: its status, and its error code and
// whether the refusal names the ledger wal (exactly once), or, for a
// 200, how many queries were cached and the budget it leaves.
type outcome struct {
	status    int
	code      string
	wal       bool
	cached    int
	remaining int
}

// append models one ledger append that moves analyst's total by delta.
// It fails once the WAL has stopped, and when the armed fault fires,
// which stops the WAL; a failed fsync leaves the whole entry on disk.
func (m *ledgerModel) append(op, analyst string, cost, delta int) bool {
	if m.stopped {
		return false
	}
	if m.faultIn > 0 {
		if m.faultIn--; m.faultIn == 0 {
			m.stopped = true
			if m.faultWhole {
				m.disk[analyst] += delta
				m.diskEntries++
			}
			return false
		}
	}
	m.live[analyst] += delta
	m.disk[analyst] += delta
	m.entries++
	m.diskEntries++
	m.applied++
	m.step = append(m.step, LedgerEntry{Analyst: analyst, Op: op, Cost: cost, Cumulative: m.live[analyst]})
	return true
}

// batch models one POST of qs by analyst while the backend is in mode.
func (m *ledgerModel) batch(analyst string, qs [][]byte, mode int) outcome {
	cached, seen := 0, map[string]bool{}
	var miss []string
	for _, q := range qs {
		switch k := string(q); {
		case m.cached[k]:
			cached++
		case !seen[k]:
			seen[k] = true
			miss = append(miss, k)
		}
	}
	cost := len(miss)
	ok := outcome{status: http.StatusOK, cached: cached, remaining: modelBudget - m.live[analyst]}
	walDown := outcome{status: http.StatusInternalServerError, code: CodeLedgerStopped, wal: true}
	switch {
	case cost == 0:
		return ok
	case m.live[analyst]+cost > modelBudget:
		if !m.append(LedgerDeny, analyst, cost, 0) {
			return walDown
		}
		return outcome{status: http.StatusTooManyRequests, code: CodeBudgetExhausted}
	case !m.append(LedgerSpend, analyst, cost, cost):
		return walDown
	case mode == modeAnswer:
		for _, k := range miss {
			m.cached[k] = true
		}
		m.released[analyst] += cost
		ok.remaining -= cost
		return ok
	case !m.append(LedgerRefund, analyst, cost, -cost):
		return walDown
	case mode == modeSuppress:
		return outcome{status: http.StatusUnprocessableEntity, code: CodeSuppressed}
	}
	return outcome{status: http.StatusInternalServerError, code: CodeInternal}
}

// restart models a server restarted on the WAL: the totals are what the
// disk replays to, and the cache, the stopped WAL and any armed fault
// are gone.
func (m *ledgerModel) restart() {
	m.live = maps.Clone(m.disk)
	m.cached = map[string]bool{}
	m.stopped, m.faultIn = false, 0
	m.entries, m.applied = m.diskEntries, 0
}

// FuzzLedgerModel runs the query server's privacy-loss ledger through
// a workload decoded from the fuzz input, two bytes a step, at most
// modelSteps steps: a batch of fresh, repeated or mixed queries from one
// of three analysts; a backend mode (answer, suppress, fail); a short
// write or a failed fsync armed on the next WAL append or the one after,
// so it lands on a spend, a deny or a refund; or a restart on the WAL.
// After every step the server must agree with ledgerModel: each
// response, every total in /v1/ledger and ReplayLedger over its
// entries, the entries the step applied, qserver.wal_appends, and the
// cache size, so no cached key is charged twice in one lifetime. No
// total may fall below what the answers released to its analyst cost.
// Plain go test runs only the seeds below.
func FuzzLedgerModel(f *testing.F) {
	// Ops: 0-4 batch, 5 mode, 6 arm a fault, 7 restart. A batch's arg
	// picks analyst arg%3; arg/3%3 picks 1+arg/9%3 fresh queries (0), a
	// repeat of past batch arg/9 (1), or that batch plus one new query
	// sent twice (2). Fault args: 0 short write and 1 failed fsync on
	// the next append, 2 and 3 the same on the one after.
	//
	// Spends, free repeats, a denial, a failed batch and two restarts:
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 4, 0, 18, 0, 11, 0, 6, 0, 9,
		5, 2, 0, 1, 5, 0, 7, 0, 0, 12, 0, 13, 0, 14, 0, 23, 7, 0, 0, 0})
	// A short write, then a failed fsync, on a spend:
	f.Add([]byte{0, 0, 6, 0, 0, 9, 0, 3, 0, 1, 7, 0, 0, 9})
	f.Add([]byte{0, 0, 6, 1, 0, 9, 0, 3, 0, 1, 7, 0, 0, 12})
	// A failed fsync on a suppressed batch's refund, whose restart lands
	// one refund below the stopped live total, and a short write on a
	// failed batch's refund:
	f.Add([]byte{5, 1, 6, 3, 0, 0, 0, 3, 7, 0, 5, 0, 0, 3})
	f.Add([]byte{5, 2, 6, 2, 0, 1, 0, 4, 7, 0, 5, 0, 0, 4})
	// A failed fsync, then a short write, on a denial:
	f.Add([]byte{0, 18, 0, 18, 6, 1, 0, 0, 0, 3, 7, 0, 0, 0, 6, 0, 0, 9, 7, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		mode := modeAnswer
		cfg := ServerConfig{
			N: modelN, P: 0.5, Seed: 1, Budget: modelBudget, Workers: 1,
			WALPath: filepath.Join(t.TempDir(), "ledger.wal"), WALSync: true,
			Backends: []Backend{modeBackend{&mode}},
		}
		start := func() (*Server, *faultFile, *obs.Registry) {
			cfg.Registry = obs.NewRegistry()
			cfg.Registry.SetEnabled(true)
			ff := &faultFile{}
			return faultServer(t, cfg, ff), ff, cfg.Registry
		}
		srv, ff, reg := start()
		m := &ledgerModel{live: map[string]int{}, disk: map[string]int{}, released: map[string]int{}, cached: map[string]bool{}}
		var history [][][]byte
		next := 0 // the last new query, as a bitmap of records 0-15
		newQuery := func() []byte {
			next++
			return []byte{byte(next), byte(next >> 8)}
		}
		for i := 0; i+1 < len(data) && i < 2*modelSteps; i += 2 {
			op, arg := data[i]%8, int(data[i+1])
			switch {
			case op < 5:
				var qs [][]byte
				if shape := arg / 3 % 3; shape == 0 || len(history) == 0 {
					for j := 0; j <= arg/9%3; j++ {
						qs = append(qs, newQuery())
					}
				} else {
					qs = slices.Clone(history[arg/9%len(history)])
					if shape == 2 {
						q := newQuery()
						qs = append(qs, q, q)
					}
				}
				history = append(history, qs)
				analyst := modelAnalysts[arg%3]
				want := m.batch(analyst, qs, mode)
				if got := postModel(t, srv, analyst, qs); got != want {
					t.Fatalf("step %d: %s asks %x: got %+v, the model says %+v", i/2, analyst, qs, got, want)
				}
			case op == 5:
				mode = arg % 3
			case op == 6:
				m.faultIn, m.faultWhole = 1+arg/2%2, arg%2 == 1
				ff.writes, ff.syncs = 0, 0
				if m.faultWhole {
					ff.syncs = m.faultIn
				} else {
					ff.writes = m.faultIn
				}
			default:
				ff.writes, ff.syncs = 0, 0 // an armed fault must not fire on Close's sync
				if err := srv.Close(); err != nil {
					t.Fatalf("step %d: close: %v", i/2, err)
				}
				srv, ff, reg = start()
				m.restart()
			}
			m.check(t, i/2, srv, reg)
		}
	})
}

// check compares the server's ledger, counter and cache with m after
// one step.
func (m *ledgerModel) check(t *testing.T, step int, srv *Server, reg *obs.Registry) {
	t.Helper()
	lr := getLedger(t, srv)
	replayed, err := ReplayLedger(lr.Entries)
	if err != nil {
		t.Fatalf("step %d: the served ledger does not replay: %v", step, err)
	}
	for _, a := range modelAnalysts {
		if lr.Totals[a] != m.live[a] || replayed[a] != m.live[a] {
			t.Fatalf("step %d: %s's total is %d and replays to %d, the model says %d", step, a, lr.Totals[a], replayed[a], m.live[a])
		}
		if lr.Totals[a] < m.released[a] {
			t.Fatalf("step %d: %s's total %d is below the %d the released answers cost", step, a, lr.Totals[a], m.released[a])
		}
	}
	if len(lr.Entries) != m.entries {
		t.Fatalf("step %d: the ledger serves %d entries, the model has %d", step, len(lr.Entries), m.entries)
	}
	var got []LedgerEntry
	for _, e := range lr.Entries[m.entries-len(m.step):] {
		got = append(got, LedgerEntry{Analyst: e.Analyst, Op: e.Op, Cost: e.Cost, Cumulative: e.Cumulative})
	}
	if !slices.Equal(got, m.step) {
		t.Fatalf("step %d: applied %+v, the model applied %+v", step, got, m.step)
	}
	m.step = nil
	if n := reg.Counter(MetricWALAppends).Value(); n != int64(m.applied) {
		t.Fatalf("step %d: %s = %d, the live ledger applied %d entries", step, MetricWALAppends, n, m.applied)
	}
	if srv.CacheLen() != len(m.cached) {
		t.Fatalf("step %d: %d keys cached, the model has %d", step, srv.CacheLen(), len(m.cached))
	}
}

// postModel sends analyst's batch qs to the model backend and returns
// the response's outcome.
func postModel(t *testing.T, srv *Server, analyst string, qs [][]byte) outcome {
	t.Helper()
	code, body := postBitmaps(srv, "model", analyst, qs)
	got := outcome{status: code}
	var err error
	if code == http.StatusOK {
		var qr QueryResponse
		err = json.Unmarshal([]byte(body), &qr)
		got.cached, got.remaining = qr.Cached, qr.BudgetRemaining
	} else {
		var er ErrorResponse
		err = json.Unmarshal([]byte(body), &er)
		got.code, got.wal = er.Err.Code, strings.Count(er.Err.Message, "ledger wal") == 1
	}
	if err != nil {
		t.Fatalf("%d response %q: %v", code, body, err)
	}
	return got
}
