package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

// walFlush is the query server's WAL flush policy in both serving
// workloads, stated in every run's provenance header: one write(2) per
// ledger entry, fsync only when the server closes.
const walFlush = "write-per-entry,fsync-on-close"

// clientNames are the two timed analysts; warmAnalyst is the untimed one
// that runs in set-up.
var clientNames = [parallelism]string{"analyst0", "analyst1"}

const warmAnalyst = "warm"

// endpoint is one in-process query server on a loopback listener.
type endpoint struct {
	cfg    remote.ServerConfig
	srv    *remote.Server
	hs     *http.Server
	served chan error // Serve's result, once it returns
	base   string
	client *http.Client
	closed bool
}

// startServer starts a query server as the serving workloads configure
// it: exact backend, unlimited budget, 2 shards, 2 pool workers, a WAL
// at wal flushed per walFlush, and the default obs registry. In a traced
// run each request's handler time is a curator span under the client
// request that caused it.
func (s *serving) startServer(wal string) (*endpoint, error) {
	cfg := remote.ServerConfig{
		N: s.r.sz.qsN, Seed: s.seed, P: 0.5,
		Shards: parallelism, Workers: parallelism,
		WALPath: wal, WALSync: false,
	}
	srv, err := remote.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if s.r.traced() {
		h = s.traceHandler(h)
	}
	e := &endpoint{
		cfg:    cfg,
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: parallelism + 1}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// dial connects one analyst.
func (e *endpoint) dial(analyst string) (*remote.Oracle, error) {
	return remote.Dial(context.Background(), e.base, remote.Options{Analyst: analyst, Client: e.client})
}

// close stops the listener, waits for Serve to return and closes the
// server, which syncs its WAL.
func (e *endpoint) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.hs.Close()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// serving is what both serving workloads share: the dataset, two timed
// analysts in a closed loop, and the output checks.
type serving struct {
	r    *run
	seed int64
	dir  string // this instance's WAL directory
	x    []int64

	// inflight holds each analyst's open request span, so the server
	// handler can record its time as that span's child.
	inflight map[string]*atomic.Pointer[span]

	mismatches atomic.Int64 // answers that differ from the exact subset sum
	mu         sync.Mutex
	failed     checks
}

// expect records a failed check; the analysts call it concurrently.
func (s *serving) expect(ok bool, format string, args ...any) {
	s.mu.Lock()
	s.failed.expect(ok, format, args...)
	s.mu.Unlock()
}

func newServing(r *run, seed int64) (*serving, error) {
	dir, err := os.MkdirTemp(r.dir, "qserver-")
	if err != nil {
		return nil, err
	}
	s := &serving{r: r, seed: seed, dir: dir, x: remote.Dataset(seed, r.sz.qsN, 0.5), inflight: map[string]*atomic.Pointer[span]{}}
	for _, a := range append(clientNames[:], warmAnalyst) {
		s.inflight[a] = &atomic.Pointer[span]{}
	}
	return s, nil
}

func (s *serving) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var parent *span
		if p := s.inflight[req.Header.Get(remote.HeaderAnalyst)]; p != nil {
			parent = p.Load()
		}
		sp := s.r.tr.begin(stCurator, parent)
		h.ServeHTTP(w, req)
		sp.end()
	})
}

// ask sends one batch as one timed operation and checks every answer
// against the exact subset sum.
func (s *serving) ask(o *remote.Oracle, analyst string, root *span, batch [][]int) {
	r := s.r
	sp := r.tr.begin(stAdversary, root)
	s.inflight[analyst].Store(sp)
	t0 := time.Now()
	answers, err := o.Answer(context.Background(), batch)
	d := time.Since(t0)
	s.inflight[analyst].Store(nil)
	sp.end()
	if err != nil {
		r.fail()
		s.expect(false, "%s: request failed: %v", analyst, err)
		return
	}
	r.op(d)
	for i, q := range batch {
		var sum int64
		for _, j := range q {
			sum += s.x[j]
		}
		if answers[i] != float64(sum) {
			s.mismatches.Add(1)
		}
	}
}

// drive runs one round: both timed analysts at once, each sending qsRound
// batches drawn by next in a closed loop.
func (s *serving) drive(oracles [parallelism]*remote.Oracle, next func(c int) [][]int) {
	r := s.r
	var wg sync.WaitGroup
	for c := range oracles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := r.tr.beginOn(stHarness, nil, r.tr.lane("client "+clientNames[c]))
			defer root.end()
			for i := 0; i < r.sz.qsRound; i++ {
				in := r.tr.begin(stInput, root)
				batch := next(c)
				in.end()
				s.ask(oracles[c], clientNames[c], root, batch)
			}
		}()
	}
	wg.Wait()
}

// checkLedger fetches the live server's privacy-loss ledger, checks that
// it replays to the totals the server reports and that those totals are
// want, and returns them.
func (s *serving) checkLedger(label string, o *remote.Oracle, want map[string]int) map[string]int {
	lr, err := o.FetchLedger(context.Background(), "")
	if err != nil {
		s.expect(false, "%s: fetching the ledger: %v", label, err)
		return nil
	}
	replayed, err := remote.ReplayLedger(lr.Entries)
	s.expect(err == nil, "%s: ledger does not replay: %v", label, err)
	for a, v := range lr.Totals {
		s.expect(replayed[a] == v, "%s: ledger replays %s to %d, server reports %d", label, a, replayed[a], v)
	}
	for a, v := range want {
		s.expect(lr.Totals[a] == v, "%s: %s spent %d, want %d", label, a, lr.Totals[a], v)
	}
	return lr.Totals
}

// checkRestart opens a new server on a closed server's WAL and checks it
// replays to the same totals.
func (s *serving) checkRestart(label string, cfg remote.ServerConfig, totals map[string]int) {
	srv, err := remote.NewServer(cfg)
	if err != nil {
		s.expect(false, "%s: restart on the WAL: %v", label, err)
		return
	}
	for a, v := range totals {
		s.expect(srv.BudgetSpent(a) == v, "%s: restart replays %s to %d, want %d", label, a, srv.BudgetSpent(a), v)
	}
	s.expect(srv.Close() == nil, "%s: closing the restarted server", label)
}

func (s *serving) result() []string {
	c := append(checks(nil), s.failed...)
	n := s.mismatches.Load()
	c.expect(n == 0, "%d answers differ from the exact subset sum over remote.Dataset", n)
	return c
}

// freshServing is qserver-fresh: every batch holds never-seen queries, so
// each request takes the spend path — ledger spend, WAL append, backend
// answers, cache insert. The cache never evicts, so a server serves
// qsEpoch rounds (an epoch) and is then replaced, to keep memory bounded.
type freshServing struct {
	*serving
	cur    *liveEpoch
	epochs []epoch // finished epochs
	// rngs are the analysts' query streams, continuing across epochs.
	rngs [parallelism]*rand.Rand
}

// liveEpoch is the running server and what its analysts have asked.
type liveEpoch struct {
	e       *endpoint
	oracles [parallelism]*remote.Oracle
	seen    [parallelism]map[uint64]bool
	rounds  int
}

// epoch is one finished server lifetime and the totals its ledger held.
type epoch struct {
	cfg    remote.ServerConfig
	totals map[string]int
}

func setupFresh(r *run, seed int64) (workload, error) {
	s, err := newServing(r, seed)
	if err != nil {
		return nil, err
	}
	w := &freshServing{serving: s}
	for c := range w.rngs {
		w.rngs[c] = par.RNG(seed, c+1)
	}
	// Warm up: an untimed analyst sends qsWarm fresh batches to a server of
	// its own.
	e, err := s.startServer(filepath.Join(s.dir, "warm.wal"))
	if err != nil {
		return nil, err
	}
	o, err := e.dial(warmAnalyst)
	if err == nil {
		rng := par.RNG(seed, 0)
		for i := 0; i < r.sz.qsWarm; i++ {
			s.ask(o, warmAnalyst, nil, query.RandomSubsets(rng, r.sz.qsN, r.sz.qsBatch))
		}
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *freshServing) round(r *run) error {
	if w.cur != nil && w.cur.rounds == r.sz.qsEpoch {
		if err := w.finishEpoch(); err != nil {
			return err
		}
	}
	if w.cur == nil {
		if err := w.startEpoch(); err != nil {
			return err
		}
	}
	cur := w.cur
	cur.rounds++
	w.drive(cur.oracles, func(c int) [][]int {
		batch := query.RandomSubsets(w.rngs[c], r.sz.qsN, r.sz.qsBatch)
		for _, q := range batch {
			cur.seen[c][queryHash(q)] = true
		}
		return batch
	})
	return nil
}

func (w *freshServing) startEpoch() error {
	e, err := w.startServer(filepath.Join(w.dir, "epoch-"+strconv.Itoa(len(w.epochs))+".wal"))
	if err != nil {
		return err
	}
	cur := &liveEpoch{e: e}
	for c := range cur.oracles {
		if cur.oracles[c], err = e.dial(clientNames[c]); err != nil {
			e.close()
			return err
		}
		cur.seen[c] = map[uint64]bool{}
	}
	w.cur = cur
	return nil
}

// finishEpoch checks the live server's ledger and shuts it down. Every
// fresh query is charged once, to whichever analyst asked it first, so the
// analysts' totals sum to the distinct queries asked.
func (w *freshServing) finishEpoch() error {
	cur, label := w.cur, fmt.Sprintf("epoch %d", len(w.epochs))
	w.cur = nil
	defer cur.e.close()
	distinct := map[uint64]bool{}
	for _, m := range cur.seen {
		for k := range m {
			distinct[k] = true
		}
	}
	o, err := cur.e.dial(warmAnalyst)
	if err != nil {
		return err
	}
	totals := w.checkLedger(label, o, nil)
	sum := 0
	for _, v := range totals {
		sum += v
	}
	w.expect(sum == len(distinct), "%s: analysts spent %d in total, want %d distinct fresh queries", label, sum, len(distinct))
	if err := cur.e.close(); err != nil {
		return err
	}
	w.epochs = append(w.epochs, epoch{cfg: cur.e.cfg, totals: totals})
	return nil
}

// check finishes the live epoch, then checks that a restart on every
// epoch's WAL replays to the totals its server reported.
func (w *freshServing) check() []string {
	if w.cur != nil {
		if err := w.finishEpoch(); err != nil {
			w.expect(false, "finishing the last epoch: %v", err)
		}
	}
	for i, ep := range w.epochs {
		w.checkRestart(fmt.Sprintf("epoch %d", i), ep.cfg, ep.totals)
	}
	return w.result()
}

func (w *freshServing) layerCounts() map[string]int64 {
	return map[string]int64{"remote.wal_bytes": walBytes(filepath.Join(w.dir, "epoch-*.wal"))}
}

func (w *freshServing) close() error {
	var err error
	if w.cur != nil {
		err = w.cur.e.close()
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// cachedServing is qserver-cached: in set-up an untimed analyst asks a
// pool of qsPool fresh batches; the timed analysts then repeat uniformly
// chosen pool batches verbatim, so every request is answered from the
// cache and spends nothing. One server serves the whole run.
type cachedServing struct {
	*serving
	e       *endpoint
	pool    [][][]int
	clients [parallelism]*remote.Oracle
	rngs    [parallelism]*rand.Rand
	warm    *remote.Oracle
	spent   int   // distinct pool queries: what the warm analyst spent
	walBase int64 // WAL size after set-up
}

func setupCached(r *run, seed int64) (workload, error) {
	s, err := newServing(r, seed)
	if err != nil {
		return nil, err
	}
	w := &cachedServing{serving: s}
	if w.e, err = s.startServer(filepath.Join(s.dir, "cached.wal")); err != nil {
		return nil, err
	}
	if w.warm, err = w.e.dial(warmAnalyst); err != nil {
		w.e.close()
		return nil, err
	}
	rng := par.RNG(seed, 0)
	distinct := map[uint64]bool{}
	for i := 0; i < r.sz.qsPool; i++ {
		b := query.RandomSubsets(rng, r.sz.qsN, r.sz.qsBatch)
		w.pool = append(w.pool, b)
		s.ask(w.warm, warmAnalyst, nil, b)
		for _, q := range b {
			distinct[queryHash(q)] = true
		}
	}
	w.spent = len(distinct)
	w.walBase = walBytes(w.e.cfg.WALPath)
	for c := range w.clients {
		w.rngs[c] = par.RNG(seed, c+1)
		if w.clients[c], err = w.e.dial(clientNames[c]); err != nil {
			w.e.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *cachedServing) round(r *run) error {
	w.drive(w.clients, func(c int) [][]int { return w.pool[w.rngs[c].Intn(len(w.pool))] })
	return nil
}

// check verifies the ledger — the timed analysts spent nothing, the warm
// analyst exactly the distinct pool queries — then closes the server and
// checks a restart on its WAL replays the same totals.
func (w *cachedServing) check() []string {
	want := map[string]int{warmAnalyst: w.spent, clientNames[0]: 0, clientNames[1]: 0}
	totals := w.checkLedger("qserver-cached", w.warm, want)
	if err := w.e.close(); err != nil {
		w.expect(false, "closing the server: %v", err)
	} else if totals != nil {
		w.checkRestart("qserver-cached", w.e.cfg, totals)
	}
	return w.result()
}

// layerCounts counts the WAL bytes the timed phase appended: none, when
// every answer comes from the cache.
func (w *cachedServing) layerCounts() map[string]int64 {
	return map[string]int64{"remote.wal_bytes": walBytes(w.e.cfg.WALPath) - w.walBase}
}

func (w *cachedServing) close() error {
	err := w.e.close()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// queryHash identifies a subset query by its (sorted) indices.
func queryHash(q []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, i := range q {
		for k := range b {
			b[k] = byte(i >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// walBytes is the total size of the WAL files matching pattern.
func walBytes(pattern string) int64 {
	files, _ := filepath.Glob(pattern) // fails only on a malformed pattern
	var n int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			n += fi.Size()
		}
	}
	return n
}
