package remote

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"singlingout/internal/diffix"
	"singlingout/internal/obs"
	"singlingout/internal/query"
)

// Metric names recorded by the client Oracle.
const (
	MetricClientRetries = "remote.retries"    // retried requests (POST chunks and GETs)
	MetricClientBackoff = "remote.backoff_ns" // per-retry backoff sleeps
)

// Options configures a client Oracle. The zero value is usable: exact
// backend, anonymous analyst, server-advertised batch limit, 3 retries
// with 50ms initial backoff, http.DefaultClient.
type Options struct {
	// Backend selects the server oracle: "exact", "laplace" or "diffix".
	Backend string
	// Analyst is the budget-accounting identity sent with every batch.
	Analyst string
	// MaxBatch caps queries per HTTP request (chunking larger Answer
	// calls); 0 means the server's advertised max_batch.
	MaxBatch int
	// Retries is how many times a transient failure (network error, 5xx
	// other than ledger_stopped, or an overload shed) is retried per
	// request; 0 means 3. Negative disables retries.
	Retries int
	// Backoff is the initial retry delay, doubled per attempt; 0 means
	// 50ms. An overload refusal's retry_after_ms hint is used instead
	// when it is longer than the computed backoff.
	Backoff time.Duration
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Registry receives the client's remote.* metrics; nil means
	// obs.Default().
	Registry *obs.Registry
	// Journal receives query_retry events (one per retried attempt); nil
	// means none.
	Journal *obs.Journal
}

// Oracle is the client side of the query service: a query.Oracle whose
// Answer travels over HTTP. Attacks in package recon and the experiment
// harnesses run against it exactly as against an in-process oracle; the
// network, batching, retry and budget semantics live here. Every POST is
// traced (when the default tracer is enabled) and stamped with the wire
// trace headers, so the server's journal and ledger entries correlate
// back to this client's spans.
type Oracle struct {
	base   string
	opts   Options
	meta   Meta
	trace  string // wire trace id, stable for the oracle's lifetime
	tracer *obs.Tracer
	lane   int

	retries *obs.Counter
	backoff *obs.Histogram
}

// Dial fetches baseURL/v1/meta and returns an Oracle bound to that
// server. A server speaking a wire version other than V, or advertising
// a non-positive dataset size or batch limit, fails the dial. The meta
// fetch retries transient failures like any other request.
func Dial(ctx context.Context, baseURL string, opts Options) (*Oracle, error) {
	if opts.Backend == "" {
		opts.Backend = "exact"
	}
	if opts.Retries == 0 {
		opts.Retries = 3
	}
	if opts.Backoff == 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	tracer := obs.DefaultTracer()
	o := &Oracle{
		base:    baseURL,
		opts:    opts,
		trace:   traceID(baseURL, opts.Backend, opts.Analyst),
		tracer:  tracer,
		lane:    tracer.NewLane("remote client " + opts.Backend),
		retries: reg.Counter(MetricClientRetries),
		backoff: reg.Histogram(MetricClientBackoff),
	}
	if err := o.getJSON(ctx, "/v1/meta", &o.meta); err != nil {
		return nil, fmt.Errorf("remote: dialing query server: %w", err)
	}
	if o.meta.V != V {
		return nil, fmt.Errorf("remote: server speaks wire version %d, client speaks %d", o.meta.V, V)
	}
	if o.meta.N <= 0 {
		return nil, fmt.Errorf("remote: server advertises dataset size %d", o.meta.N)
	}
	if o.meta.MaxBatch <= 0 {
		return nil, fmt.Errorf("remote: server advertises max_batch %d", o.meta.MaxBatch)
	}
	if opts.MaxBatch <= 0 || opts.MaxBatch > o.meta.MaxBatch {
		o.opts.MaxBatch = o.meta.MaxBatch
	}
	return o, nil
}

// Meta returns the server's advertised metadata (dataset seed/size,
// backends, budget, serving topology).
func (o *Oracle) Meta() Meta { return o.meta }

// TraceID returns the oracle's wire trace id: 16 hex characters,
// deterministically derived from (base URL, backend, analyst), stamped on
// every POST as the X-Trace-Id header. A merged Chrome trace filters the
// server's dump on it to keep only this client's spans.
func (o *Oracle) TraceID() string { return o.trace }

// traceID derives the deterministic wire trace id for one client
// identity (FNV-1a, same family as the ledger's batch hash).
func traceID(base, backend, analyst string) string {
	h := fnv.New64a()
	for _, s := range []string{base, backend, analyst} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// FetchTrace GETs the server's /trace endpoint: its collected spans as an
// obs.TraceDump, ready for Tracer.AddProcess on the client side.
func (o *Oracle) FetchTrace(ctx context.Context) (obs.TraceDump, error) {
	var d obs.TraceDump
	if err := o.getJSON(ctx, "/trace", &d); err != nil {
		return d, err
	}
	if d.V != obs.TraceDumpV {
		return d, fmt.Errorf("remote: trace dump version %d, want %d", d.V, obs.TraceDumpV)
	}
	return d, nil
}

// FetchLedger GETs the server's privacy-loss ledger (all analysts when
// analyst is empty).
func (o *Oracle) FetchLedger(ctx context.Context, analyst string) (LedgerResponse, error) {
	path := "/v1/ledger"
	if analyst != "" {
		path += "?" + url.Values{"analyst": {analyst}}.Encode()
	}
	var lr LedgerResponse
	if err := o.getJSON(ctx, path, &lr); err != nil {
		return lr, err
	}
	if lr.V != V {
		return lr, fmt.Errorf("remote: ledger wire version %d, want %d", lr.V, V)
	}
	return lr, nil
}

// getJSON GETs base+path and decodes the JSON body into v, retrying
// transient failures (network errors, 5xx) with the same backoff and
// telemetry as query submission — a ledger or trace fetch racing a
// server restart deserves the same persistence as a batch.
func (o *Oracle) getJSON(ctx context.Context, path string, v any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		retryable, err := o.getOnce(ctx, path, v)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt >= o.opts.Retries {
			return lastErr
		}
		if werr := o.await(ctx, attempt, 0, 0, err); werr != nil {
			return werr
		}
	}
}

// getOnce performs one GET attempt; retryable marks failures worth
// re-asking (the request never mutates server state).
func (o *Oracle) getOnce(ctx context.Context, path string, v any) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, o.base+path, nil)
	if err != nil {
		return false, fmt.Errorf("remote: %w", err)
	}
	resp, err := o.opts.Client.Do(req)
	if err != nil {
		return true, fmt.Errorf("remote: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode >= 500, fmt.Errorf("remote: GET %s returned %s", path, resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(v); err != nil {
		return false, fmt.Errorf("remote: GET %s: undecodable body: %w", path, err)
	}
	return false, nil
}

// N implements query.Oracle.
func (o *Oracle) N() int { return o.meta.N }

// Answer implements query.Oracle: every query is checked and written as
// its bitmap before anything is sent, so a call holding an invalid query
// fails with query.ErrInvalidQuery without posting, and spends nothing;
// the batch is then chunked to the batch limit and submitted as POST
// /v1/query/{backend} requests. Transient failures (network errors,
// 5xx, overload sheds) are retried with exponential backoff, except the
// ledger_stopped 500 of a server whose WAL stopped; refusals
// come back as the repository's sentinel errors — errors.Is(err,
// query.ErrBudgetExhausted) on an exhausted budget,
// query.ErrInvalidQuery on a malformed query, diffix.ErrSuppressed on
// low-count suppression, query.ErrOverloaded on a shed the retries
// could not outlast — so attack code handles remote and in-process
// oracles identically.
//
// Each request is all-or-nothing on the server, but a call of several
// requests is not: when a later request is refused, the call returns no
// answers, while the earlier requests stay charged against the budget
// and their answers stay cached, so asking for them again is free.
func (o *Oracle) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	bms, err := bitmaps(o.meta.N, queries)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(bms))
	for start := 0; start < len(bms); start += o.opts.MaxBatch {
		answers, err := o.submit(ctx, bms[start:min(start+o.opts.MaxBatch, len(bms))])
		if err != nil {
			return nil, err
		}
		out = append(out, answers...)
	}
	return out, nil
}

// submit POSTs one chunk, retrying transient failures. Each retry bumps
// the remote.retries counter, records the backoff sleep into
// remote.backoff_ns, and (when a journal is configured) emits one
// query_retry event naming the attempt and the transient error. An
// overload shed counts as transient: the server said "later", and its
// retry_after_ms hint stretches the backoff when longer.
func (o *Oracle) submit(ctx context.Context, chunk [][]byte) ([]float64, error) {
	// Room for the body, unless the analyst name needs escaping.
	size := len(`{"v":,"analyst":"","queries":[]}`) + 8 + len(o.opts.Analyst) +
		len(chunk)*(base64.StdEncoding.EncodedLen((o.meta.N+7)/8)+3)
	body := appendQueryRequest(make([]byte, 0, size), QueryRequest{V: V, Analyst: o.opts.Analyst, Queries: chunk})
	var lastErr error
	for attempt := 0; ; attempt++ {
		answers, retryable, hintMs, err := o.post(ctx, body, len(chunk))
		if err == nil {
			return answers, nil
		}
		lastErr = err
		if !retryable || attempt >= o.opts.Retries {
			return nil, lastErr
		}
		if werr := o.await(ctx, attempt, hintMs, len(chunk), err); werr != nil {
			return nil, werr
		}
	}
}

// await sleeps one retry backoff: exponential from Options.Backoff,
// stretched to the server's retry hint when that is longer, recorded in
// remote.retries / remote.backoff_ns and the journal.
func (o *Oracle) await(ctx context.Context, attempt, hintMs, queries int, cause error) error {
	delay := o.opts.Backoff << uint(attempt)
	if hint := time.Duration(hintMs) * time.Millisecond; hint > delay {
		delay = hint
	}
	o.retries.Add(1)
	o.backoff.Observe(delay.Nanoseconds())
	o.journalRetry(attempt+1, queries, cause)
	t := time.NewTimer(delay)
	select {
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// journalRetry emits one query_retry event (when a journal is
// configured): which backend, which attempt is about to run, how many
// queries the request carries (0 for a GET), and the transient error
// being retried.
func (o *Oracle) journalRetry(attempt, queries int, err error) {
	if o.opts.Journal == nil {
		return
	}
	_ = o.opts.Journal.Emit(obs.Event{
		Phase: "query_retry",
		ID:    o.opts.Backend,
		Trace: o.trace,
		Sizes: map[string]int{"attempt": attempt, "queries": queries},
		Error: err.Error(),
	})
}

// post performs one HTTP attempt. retryable marks transient failures
// (network errors, 5xx, overload sheds — hintMs carries the shed's
// retry_after_ms); 4xx refusals are mapped to sentinels and never
// retried — resubmitting an over-budget batch cannot succeed — and
// neither is the 500 ledger_stopped of a server whose WAL stopped.
func (o *Oracle) post(ctx context.Context, body []byte, want int) (answers []float64, retryable bool, hintMs int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		o.base+"/v1/query/"+o.opts.Backend, bytes.NewReader(body))
	if err != nil {
		return nil, false, 0, fmt.Errorf("remote: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the trace over the wire: the server continues this span
	// (X-Parent-Span becomes its span's parent) and stamps its journal
	// events and ledger entries with X-Trace-Id.
	sp := o.tracer.Begin("query_post", "remote", o.lane, obs.NoSpan).WithArg("trace", o.trace)
	defer sp.End()
	req.Header.Set(HeaderTraceID, o.trace)
	if id := sp.ID(); id != obs.NoSpan {
		req.Header.Set(HeaderParentSpan, strconv.FormatInt(int64(id), 10))
	}
	if o.opts.Analyst != "" {
		req.Header.Set(HeaderAnalyst, o.opts.Analyst)
	}
	resp, err := o.opts.Client.Do(req)
	if err != nil {
		return nil, true, 0, fmt.Errorf("remote: query server unreachable: %w", err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, true, 0, fmt.Errorf("remote: reading response: %w", err)
	}
	if resp.StatusCode >= 500 {
		var er ErrorResponse
		if json.Unmarshal(payload, &er) == nil && er.Err.Code == CodeOverloaded {
			return nil, true, er.Err.RetryAfterMs,
				fmt.Errorf("remote: %s: %w", er.Err.Message, query.ErrOverloaded)
		}
		// A stopped ledger WAL refuses every spend until the server
		// restarts, so only that 5xx is not worth a retry.
		retry := er.Err.Code != CodeLedgerStopped
		return nil, retry, 0, fmt.Errorf("remote: server error %s: %s", resp.Status, errMessage(payload))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, 0, refusalError(resp.StatusCode, payload)
	}
	var qr QueryResponse
	if err := json.Unmarshal(payload, &qr); err != nil {
		return nil, false, 0, fmt.Errorf("remote: undecodable response: %w", err)
	}
	if qr.V != V {
		return nil, false, 0, fmt.Errorf("remote: response wire version %d, want %d", qr.V, V)
	}
	if len(qr.Answers) != want {
		return nil, false, 0, fmt.Errorf("remote: %d answers for %d queries", len(qr.Answers), want)
	}
	return qr.Answers, false, 0, nil
}

// refusalError maps a 4xx ErrorResponse to the repository's sentinel
// errors where one exists.
func refusalError(status int, payload []byte) error {
	var er ErrorResponse
	if json.Unmarshal(payload, &er) != nil || er.Err.Code == "" {
		return fmt.Errorf("remote: server refused with status %d: %s", status, payload)
	}
	switch er.Err.Code {
	case CodeBudgetExhausted:
		return fmt.Errorf("remote: %s: %w", er.Err.Message, query.ErrBudgetExhausted)
	case CodeInvalidQuery:
		return fmt.Errorf("remote: %s: %w", er.Err.Message, query.ErrInvalidQuery)
	case CodeSuppressed:
		return fmt.Errorf("remote: %s: %w", er.Err.Message, diffix.ErrSuppressed)
	default:
		return fmt.Errorf("remote: server refused (%s): %s", er.Err.Code, er.Err.Message)
	}
}

func errMessage(payload []byte) string {
	var er ErrorResponse
	if json.Unmarshal(payload, &er) == nil && er.Err.Code != "" {
		return er.Err.Code + ": " + er.Err.Message
	}
	if len(payload) > 200 {
		payload = payload[:200]
	}
	return string(payload)
}

var _ query.Oracle = (*Oracle)(nil)
