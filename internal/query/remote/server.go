package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"singlingout/internal/diffix"
	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
)

// Metric names recorded by the server into its registry.
const (
	MetricRequests       = "qserver.requests"
	MetricBatchQueries   = "qserver.batch_queries"
	MetricCacheHits      = "qserver.cache_hits"
	MetricCacheMisses    = "qserver.cache_misses"
	MetricBudgetDenied   = "qserver.budget_denied"
	MetricBudgetSpent    = "qserver.budget_spent"    // fresh queries charged, all analysts
	MetricBudgetRefunded = "qserver.budget_refunded" // fresh queries refunded on failed batches
	MetricErrors         = "qserver.errors"
	MetricLatency        = "qserver.latency_ns"
	MetricCacheSize      = "qserver.cache_size"
	MetricShed           = "qserver.shed"        // requests refused by admission control
	MetricQueueDepth     = "qserver.queue_depth" // admitted requests waiting for an active slot
	MetricWALAppends     = "qserver.wal_appends" // ledger entries durably logged
)

// ServerConfig configures a query server. The dataset is generated, not
// supplied: X = Dataset(Seed, N, P), so the /v1/meta the server advertises
// is consistent with its answers by construction.
type ServerConfig struct {
	N    int     // dataset size
	Seed int64   // dataset + sticky-noise seed
	P    float64 // Bernoulli parameter of the protected bit

	Eps       float64 // laplace backend: per-query epsilon
	SD        float64 // diffix backend: sticky noise standard deviation
	Threshold int     // diffix backend: low-count suppression bound

	Budget        int // per-analyst fresh-query budget, 0 = unlimited
	MaxBatch      int // largest accepted batch, 0 = default 4096
	MaxConcurrent int // total active-request bound, split across shards; 0 = default 16
	Workers       int // pool workers per fresh sub-batch, 0 = GOMAXPROCS

	// Shards partitions the answer cache (by canonical query) and the
	// privacy-loss ledger + admission control (by analyst id) across
	// independent locks, a key going to shard fnvKey(key) mod Shards;
	// 0 = 1. Reconstruction results are byte-identical at any shard
	// count: every backend is deterministic per canonical query, so
	// partitioning changes contention, never answers.
	Shards int
	// QueueDepth bounds each shard's admission queue: requests admitted
	// but waiting for an active slot. Beyond active+QueueDepth a request
	// is shed with CodeOverloaded instead of queuing unboundedly.
	// 0 = default 64, negative = no waiting room (shed when all active
	// slots are busy).
	QueueDepth int
	// Delay injects an artificial per-request service time before the
	// batch is processed — load/overload testing only (cmd/loadgen's
	// -inject-delay uses it to make shedding reproducible); 0 = none.
	Delay time.Duration

	// WALPath makes the ledger durable: every entry is appended to this
	// JSONL write-ahead log before it takes effect, and NewServer replays
	// an existing file through ReplayLedger so spent epsilon survives a
	// restart. Empty = in-memory only. The answer cache is never
	// persisted — after a restart, previously-asked queries charge again
	// (over-charging across restarts is the safe direction).
	WALPath string
	// WALSync fsyncs the WAL after every append (restart-over-crash
	// durability at a per-entry fsync cost; the file is always synced on
	// Close).
	WALSync bool

	// Backends is the oracle registry served under /v1/query/{name};
	// nil = Builtins() (exact, laplace, diffix).
	Backends []Backend

	Registry *obs.Registry // nil = obs.Default()
	Journal  *obs.Journal  // nil = no journal events
}

// retryAfter is the backoff hint stamped on overload refusals
// (Retry-After header + retry_after_ms body field) and advertised in
// /v1/meta.
const retryAfter = 50 * time.Millisecond

// Server answers statistical queries over HTTP. It owns the only copy of
// the dataset; analysts see nothing but noisy (or exact, for the
// calibration backend) counting-query answers, per-analyst budget
// accounting, and an answer cache that makes repeated queries free — the
// reference architecture the paper's attacks are aimed at. State is
// partitioned across shards (per-query cache shards, per-analyst ledger
// and admission shards) so no lock in the request path is global, and
// the ledger optionally writes ahead to a durable log so a restart never
// forgets — and therefore never refunds — spent epsilon.
type Server struct {
	cfg      ServerConfig
	x        []int64
	backends map[string]query.Oracle
	names    []string
	mux      *http.ServeMux
	tracer   *obs.Tracer
	lane     int // trace lane of the query handler

	caches     []cacheShard
	cacheCount atomic.Int64 // distinct cached keys across shards
	ledgers    []*ledger
	seq        atomic.Int64 // global ledger sequence, shared by all shards
	wal        *wal         // nil without WALPath
	admits     []*admission
	waiting    atomic.Int64 // queued-not-active requests across shards

	requests       *obs.Counter
	batchQueries   *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	budgetDenied   *obs.Counter
	budgetSpent    *obs.Counter
	budgetRefunded *obs.Counter
	errs           *obs.Counter
	shed           *obs.Counter
	walAppends     *obs.Counter
	latency        *obs.Histogram
	cacheSize      *obs.Gauge
	queueDepth     *obs.Gauge
}

// NewServer builds a Server from cfg, generating the dataset and opening
// the registered backends over it. When cfg.WALPath names an existing
// write-ahead log, the ledger is replayed from it (cross-checked with
// ReplayLedger) before the server accepts traffic; a log that does not
// replay cleanly fails construction rather than serving from a budget
// state that cannot be audited.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("remote: server needs a positive dataset size, got %d", cfg.N)
	}
	if cfg.P <= 0 || cfg.P >= 1 {
		return nil, fmt.Errorf("remote: P must be in (0,1), got %v", cfg.P)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 1
	}
	if cfg.SD <= 0 {
		cfg.SD = 1.5
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 8
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 64
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	tracer := obs.DefaultTracer()
	x := Dataset(cfg.Seed, cfg.N, cfg.P)
	regs := cfg.Backends
	if len(regs) == 0 {
		regs = Builtins()
	}
	backends, err := openBackends(cfg, x, regs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		x:        x,
		backends: backends,
		tracer:   tracer,
		lane:     tracer.NewLane("qserver http"),

		requests:       reg.Counter(MetricRequests),
		batchQueries:   reg.Counter(MetricBatchQueries),
		cacheHits:      reg.Counter(MetricCacheHits),
		cacheMisses:    reg.Counter(MetricCacheMisses),
		budgetDenied:   reg.Counter(MetricBudgetDenied),
		budgetSpent:    reg.Counter(MetricBudgetSpent),
		budgetRefunded: reg.Counter(MetricBudgetRefunded),
		errs:           reg.Counter(MetricErrors),
		shed:           reg.Counter(MetricShed),
		walAppends:     reg.Counter(MetricWALAppends),
		latency:        reg.Histogram(MetricLatency),
		cacheSize:      reg.Gauge(MetricCacheSize),
		queueDepth:     reg.Gauge(MetricQueueDepth),
	}
	for name := range s.backends {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)

	// Replay the WAL (if any) before any shard exists, then partition the
	// replayed history with shardOf, as the live path does — entries
	// written under one shard count load cleanly under another.
	var replayed []LedgerEntry
	var replayedTotals map[string]int
	if cfg.WALPath != "" {
		w, entries, err := openWAL(cfg.WALPath, cfg.WALSync)
		if err != nil {
			return nil, err
		}
		if replayedTotals, err = ReplayLedger(entries); err != nil {
			w.Close()
			return nil, fmt.Errorf("remote: wal %s does not replay: %w", cfg.WALPath, err)
		}
		s.wal = w
		replayed = entries
	}
	s.caches = make([]cacheShard, cfg.Shards)
	for i := range s.caches {
		s.caches[i].m = make(map[string]float64)
	}
	perShard := (cfg.MaxConcurrent + cfg.Shards - 1) / cfg.Shards
	s.ledgers = make([]*ledger, cfg.Shards)
	s.admits = make([]*admission, cfg.Shards)
	for i := range s.ledgers {
		s.ledgers[i] = newLedger(&s.seq, s.wal)
		s.admits[i] = newAdmission(perShard, cfg.QueueDepth, &s.waiting, s.queueDepth)
	}
	if len(replayed) > 0 {
		byShard := make([][]LedgerEntry, cfg.Shards)
		totals := make([]map[string]int, cfg.Shards)
		for i := range totals {
			totals[i] = map[string]int{}
		}
		for _, e := range replayed {
			sh := shardOf(e.Analyst, cfg.Shards)
			byShard[sh] = append(byShard[sh], e)
		}
		for a, v := range replayedTotals {
			totals[shardOf(a, cfg.Shards)][a] = v
		}
		s.seq.Store(replayed[len(replayed)-1].Seq) // openWAL sorts by Seq
		for i := range s.ledgers {
			s.ledgers[i].seed(byShard[i], totals[i])
		}
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/meta", s.handleMeta)
	s.mux.HandleFunc("/v1/query/", s.handleQuery)
	s.mux.HandleFunc("/v1/ledger", s.handleLedger)
	return s, nil
}

// Close releases the server's durable resources: the ledger WAL is
// synced and closed (idempotent; a nil-WAL server closes trivially).
// In-flight requests racing a Close may fail their ledger appends — the
// batch then fails without moving budget, which is the safe side.
func (s *Server) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Handler returns the /v1/* HTTP handler. Mount it alongside the obs
// serve.Server handler to get /metrics, /snapshot, /healthz and /journal
// on the same listener (see cmd/qserver).
func (s *Server) Handler() http.Handler { return s.mux }

// Meta returns the metadata GET /v1/meta serves.
func (s *Server) Meta() Meta {
	return Meta{
		V:            V,
		N:            s.cfg.N,
		Seed:         s.cfg.Seed,
		P:            s.cfg.P,
		Backends:     append([]string(nil), s.names...),
		Budget:       s.cfg.Budget,
		MaxBatch:     s.cfg.MaxBatch,
		Shards:       s.cfg.Shards,
		QueueDepth:   s.cfg.QueueDepth,
		RetryAfterMs: int(retryAfter / time.Millisecond),
	}
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "GET only")
		return
	}
	s.requests.Add(1)
	writeJSON(w, http.StatusOK, s.Meta())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sp := s.latency.Span()
	defer sp.End()
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST only")
		return
	}
	// Continue the client's trace: the span this handler records carries
	// the wire trace id and reports the client-side span as its parent,
	// so a merged Chrome trace (client /trace fetch + AddProcess) shows
	// the server lane nested under the client's batch span.
	trace := r.Header.Get(HeaderTraceID)
	var parent obs.SpanID
	if v := r.Header.Get(HeaderParentSpan); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			parent = obs.SpanID(id)
		}
	}
	tsp := s.tracer.Begin("query_batch", "qserver", s.lane, parent)
	if trace != "" {
		tsp = tsp.WithArg("trace", trace)
	}
	defer tsp.End()
	ctx := r.Context()

	name := strings.TrimPrefix(r.URL.Path, "/v1/query/")
	backend, ok := s.backends[name]
	if !ok {
		s.fail(w, http.StatusNotFound, CodeUnknownBackend, fmt.Sprintf("no backend %q (have %s)", name, strings.Join(s.names, ", ")))
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "undecodable body: "+err.Error())
		return
	}
	req, err := decodeQueryRequest(body, s.cfg.MaxBatch)
	if err == nil && req.V != V {
		err = versionRefusal(req.V)
	}
	if err != nil {
		code := CodeBadRequest
		var ref *refusal
		if errors.As(err, &ref) {
			code = ref.code
		}
		s.fail(w, http.StatusBadRequest, code, err.Error())
		return
	}
	analyst := req.Analyst
	if analyst == "" {
		analyst = "anon"
	}

	// Admission control on the analyst's shard: claim a bounded queue
	// slot or shed immediately — under overload the server answers
	// "retry later" in microseconds instead of stacking requests.
	shard := shardOf(analyst, len(s.ledgers))
	if err := s.admits[shard].enter(ctx); err != nil {
		if errors.Is(err, errShed) {
			s.shed.Add(1)
			s.journal(name, analyst, trace, len(req.Queries), 0, 0, CodeOverloaded)
			s.failOverloaded(w, fmt.Sprintf("shard %d admission queue full", shard))
			return
		}
		s.fail(w, http.StatusServiceUnavailable, CodeInternal, "cancelled while waiting for a slot")
		return
	}
	defer s.admits[shard].leave()

	// Injected service time (overload testing): holds the active slot so
	// concurrent load actually contends on admission.
	if s.cfg.Delay > 0 {
		t := time.NewTimer(s.cfg.Delay)
		select {
		case <-ctx.Done():
			t.Stop()
			s.fail(w, http.StatusServiceUnavailable, CodeInternal, "cancelled during injected delay")
			return
		case <-t.C:
		}
	}
	s.batchQueries.Add(int64(len(req.Queries)))

	// Canonicalize at the trust boundary: every query is sorted in place
	// (the decoder gave each its own capped slice of the batch's index
	// arena) and validated once, here — the single place duplicate
	// indices and out-of-range users are rejected for the whole service
	// (backends still re-check, but no malformed query reaches them).
	// The batch's keys are written into one buffer, sized for one byte
	// per delta, and cut from one string.
	size := 0
	for _, q := range req.Queries {
		size += len(name) + 1 + len(q)
	}
	kb := make([]byte, 0, size)
	ends := make([]int, len(req.Queries))
	for i, q := range req.Queries {
		if kb, err = canonicalize(kb, name, s.cfg.N, q); err != nil {
			s.fail(w, http.StatusBadRequest, CodeInvalidQuery, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		ends[i] = len(kb)
	}
	all := string(kb)
	keys := make([]string, len(req.Queries))
	start := 0
	for i, end := range ends {
		keys[i], start = all[start:end], end
	}

	// Cache pass, one lock per touched cache shard: split the batch into
	// hits and distinct misses. Only fresh (uncached) queries spend
	// budget — asking again is free.
	byShard := groupByShard(keys, len(s.caches))
	cachedMask := make([]bool, len(keys))
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		c := &s.caches[si]
		c.mu.Lock()
		for _, i := range byShard[si] {
			if _, ok := c.m[keys[i]]; ok {
				cachedMask[i] = true
			}
		}
		c.mu.Unlock()
	}
	type missT struct {
		key string
		q   []int
	}
	var misses []missT
	var missKeys []string
	seen := make(map[string]bool)
	cached := 0
	for i, k := range keys {
		if cachedMask[i] {
			cached++
			continue
		}
		if !seen[k] {
			// The cache keeps a fresh key in a string of its own, so it
			// never pins the rest of the batch's key string.
			k = strings.Clone(k)
			seen[k] = true
			misses = append(misses, missT{k, req.Queries[i]})
			missKeys = append(missKeys, k)
		}
	}
	fresh := len(misses)

	// Reserve the fresh queries all-or-nothing against the analyst's
	// ledger shard: a granted reservation appends a spend entry, a
	// refused one a deny entry — either way the movement hits the WAL
	// (when durable) and the audit trail before any backend runs. A WAL
	// append failure moves nothing and fails the batch. Zero-cost batches
	// (all cached) leave no entry.
	led := s.ledgers[shard]
	var hash string // names the batch in its spend and refund entries
	if fresh > 0 {
		hash = batchHash(missKeys)
		entry, ok, lerr := led.spend(analyst, name, hash, trace, fresh, s.cfg.Budget)
		if lerr != nil {
			s.journal(name, analyst, trace, len(req.Queries), cached, fresh, CodeInternal)
			s.fail(w, http.StatusInternalServerError, CodeInternal, "ledger wal: "+lerr.Error())
			return
		}
		if s.wal != nil {
			s.walAppends.Add(1)
		}
		s.journalBudget(entry)
		if !ok {
			s.budgetDenied.Add(1)
			s.journal(name, analyst, trace, len(req.Queries), cached, fresh, CodeBudgetExhausted)
			s.fail(w, http.StatusTooManyRequests, CodeBudgetExhausted,
				fmt.Sprintf("analyst %q: %d fresh queries over budget (%d of %d spent)",
					analyst, fresh, entry.Cumulative, s.cfg.Budget))
			return
		}
		s.budgetSpent.Add(int64(fresh))
	}
	s.cacheHits.Add(int64(cached))
	s.cacheMisses.Add(int64(fresh))

	// Answer the misses on the pool. The backends are sticky/deterministic
	// per canonical query, so parallel order does not affect answers.
	fresh64 := make([]float64, fresh)
	if err := par.ForEach(s.cfg.Workers, fresh, func(i int) error {
		a, err := query.AnswerOne(ctx, backend, misses[i].q)
		if err != nil {
			return err
		}
		fresh64[i] = a
		return nil
	}); err != nil {
		// All-or-nothing: a failed batch spends nothing — the refund is
		// its own ledger entry, so the audit trail shows the attempt.
		if fresh > 0 {
			re, rerr := led.refund(analyst, name, hash, trace, fresh)
			if rerr != nil {
				s.journal(name, analyst, trace, len(req.Queries), cached, fresh, CodeInternal)
				s.fail(w, http.StatusInternalServerError, CodeInternal,
					fmt.Sprintf("batch failed (%v) and the ledger refund did not persist: %v", err, rerr))
				return
			}
			if s.wal != nil {
				s.walAppends.Add(1)
			}
			s.journalBudget(re)
			s.budgetRefunded.Add(int64(fresh))
		}
		status, code := http.StatusInternalServerError, CodeInternal
		switch {
		case errors.Is(err, diffix.ErrSuppressed):
			status, code = http.StatusUnprocessableEntity, CodeSuppressed
		case errors.Is(err, query.ErrInvalidQuery):
			status, code = http.StatusBadRequest, CodeInvalidQuery
		case errors.Is(err, query.ErrBudgetExhausted):
			status, code = http.StatusTooManyRequests, CodeBudgetExhausted
		}
		s.journal(name, analyst, trace, len(req.Queries), cached, fresh, code)
		s.fail(w, status, code, err.Error())
		return
	}

	// Store the fresh answers into their cache shards, then read every
	// answer back — all answers come from the cache, so repeated keys in
	// one batch and repeated batches across analysts observe one value.
	freshByShard := groupByShard(missKeys, len(s.caches))
	var newKeys int64
	for si := range freshByShard {
		if len(freshByShard[si]) == 0 {
			continue
		}
		c := &s.caches[si]
		c.mu.Lock()
		for _, i := range freshByShard[si] {
			if _, ok := c.m[misses[i].key]; !ok {
				newKeys++
			}
			c.m[misses[i].key] = fresh64[i]
		}
		c.mu.Unlock()
	}
	if newKeys > 0 {
		s.cacheSize.Set(float64(s.cacheCount.Add(newKeys)))
	}
	answers := make([]float64, len(keys))
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		c := &s.caches[si]
		c.mu.Lock()
		for _, i := range byShard[si] {
			answers[i] = c.m[keys[i]]
		}
		c.mu.Unlock()
	}
	remaining := -1
	if s.cfg.Budget > 0 {
		remaining = s.cfg.Budget - led.total(analyst)
	}

	s.journal(name, analyst, trace, len(req.Queries), cached, fresh, "")
	writeJSON(w, http.StatusOK, QueryResponse{V: V, Answers: answers, Cached: cached, BudgetRemaining: remaining})
}

// groupByShard returns, for each of n cache shards, the indices of the
// keys that shard holds, in ascending order. Its four allocations do
// not grow with the batch.
func groupByShard(keys []string, n int) [][]int {
	shard := make([]int, len(keys))
	count := make([]int, n)
	for i, k := range keys {
		shard[i] = shardOf(k, n)
		count[shard[i]]++
	}
	groups := make([][]int, n)
	flat := make([]int, len(keys))
	for si, c := range count {
		groups[si], flat = flat[:0:c], flat[c:]
	}
	for i, sh := range shard {
		groups[sh] = append(groups[sh], i)
	}
	return groups
}

// maxBody is the largest request body the server reads; a longer one is
// refused as undecodable.
const maxBody = 64 << 20

// maxBodyHint caps the buffer a request's Content-Length sizes before
// any byte arrives. A body past it grows the buffer as it is read, so a
// false header costs at most maxBodyHint, far below maxBody.
const maxBodyHint = 1 << 20

// readBody reads r's body, at most maxBody bytes, into one buffer sized
// from its Content-Length: a body that declares its length, up to
// maxBodyHint, is read without growing the buffer.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), maxBodyHint)) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	return buf.Bytes(), err
}

// journal emits one run-journal event per query batch (when a journal is
// configured): which backend, how much was cached vs freshly spent, the
// wire trace id, and the refusal code if the batch was refused.
func (s *Server) journal(backend, analyst, trace string, queries, cached, fresh int, code string) {
	if s.cfg.Journal == nil {
		return
	}
	e := obs.Event{
		Phase: "query_batch",
		ID:    backend,
		Seed:  s.cfg.Seed,
		Trace: trace,
		Sizes: map[string]int{"queries": queries, "cached": cached, "fresh": fresh},
	}
	if code != "" {
		e.Error = code
	}
	_ = s.cfg.Journal.Emit(e)
}

// journalBudget emits one budget.spend / budget.refund / budget.deny
// event per ledger entry (when a journal is configured), carrying the
// sequence number, cost and cumulative so the journal alone replays to
// the enforced budget state.
func (s *Server) journalBudget(e LedgerEntry) {
	if s.cfg.Journal == nil {
		return
	}
	_ = s.cfg.Journal.Emit(obs.Event{
		Phase: "budget." + e.Op,
		ID:    e.Analyst,
		Seed:  s.cfg.Seed,
		Trace: e.Trace,
		Sizes: map[string]int{"seq": int(e.Seq), "cost": e.Cost, "cumulative": e.Cumulative},
	})
}

// handleLedger serves the append-only privacy-loss ledger (GET, optional
// ?analyst= filter): the full spend/refund/deny history merged across
// shards in sequence order, plus the current per-analyst net totals.
func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "GET only")
		return
	}
	s.requests.Add(1)
	entries, totals := mergeSnapshots(s.ledgers, r.URL.Query().Get("analyst"))
	writeJSON(w, http.StatusOK, LedgerResponse{
		V: V, Budget: s.cfg.Budget, Totals: totals, Entries: entries,
	})
}

// fail writes a typed refusal.
func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	s.errs.Add(1)
	writeJSON(w, status, ErrorResponse{V: V, Err: ErrorBody{Code: code, Message: msg}})
}

// failOverloaded writes the typed load-shedding refusal: 503 with the
// retry hint both as the coarse Retry-After header (whole seconds,
// minimum 1) and the precise retry_after_ms body field.
func (s *Server) failOverloaded(w http.ResponseWriter, msg string) {
	s.errs.Add(1)
	ms := int(retryAfter / time.Millisecond)
	secs := (ms + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		V:   V,
		Err: ErrorBody{Code: CodeOverloaded, Message: msg, RetryAfterMs: ms},
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// BudgetSpent reports the fresh queries an analyst has net spent (test
// and telemetry hook); it is the analyst's ledger-shard total.
func (s *Server) BudgetSpent(analyst string) int {
	return s.ledgers[shardOf(analyst, len(s.ledgers))].total(analyst)
}
