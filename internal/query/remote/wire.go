// Package remote puts the statistical-query interface on the network: a
// qserver-side HTTP handler exposing counting/subset-sum oracles over a
// loaded synthetic dataset, and a client-side Oracle implementing
// query.Oracle over HTTP, so every reconstruction attack in the
// repository runs unchanged against a remote curator. This is the paper's
// actual threat model — the Census Bureau, a Diffix deployment, any
// "query answering system" is a service, not an in-process struct — and
// the per-analyst budget accounting, answer caching and suppression
// behavior all live on the trusted side of the wire.
package remote

import (
	"math/rand"

	"singlingout/internal/synth"
)

// V is the wire schema version. Every request and response carries it
// as "v"; the server refuses a request of any other version with code
// "unsupported_version", and Dial refuses a server advertising another,
// so incompatible peers fail loudly instead of misinterpreting fields.
const V = 3

// Error codes carried in ErrorResponse. The client maps the first three
// back to the repository's sentinel errors (query.ErrInvalidQuery,
// query.ErrBudgetExhausted, diffix.ErrSuppressed).
const (
	CodeInvalidQuery       = "invalid_query"       // 400: malformed subset query
	CodeBudgetExhausted    = "budget_exhausted"    // 429: analyst budget would be exceeded
	CodeSuppressed         = "suppressed"          // 422: low-count suppression refused the batch
	CodeUnknownBackend     = "unknown_backend"     // 404: no such oracle endpoint
	CodeBadRequest         = "bad_request"         // 400: undecodable body, oversized batch
	CodeInternal           = "internal"            // 500: server-side failure
	CodeLedgerStopped      = "ledger_stopped"      // 500: the ledger's WAL refuses appends until a restart; never retried
	CodeOverloaded         = "overloaded"          // 503: admission queue full, request shed; retry after the hint
	CodeUnsupportedVersion = "unsupported_version" // 400: wire version other than V
)

// Trace-propagation headers. The client stamps every query POST with
// them; the server continues the span and stamps its journal events and
// ledger entries with the trace id, so one distributed request is legible
// end to end (see docs/INVARIANTS.md, "budget.* journal phases and trace
// headers").
const (
	// HeaderTraceID carries the client's wire trace id (16 hex chars,
	// deterministically derived from analyst/backend identity).
	HeaderTraceID = "X-Trace-Id"
	// HeaderParentSpan carries the client-side span id (decimal) the
	// server-side span should report as its parent.
	HeaderParentSpan = "X-Parent-Span"
	// HeaderAnalyst duplicates the body's analyst identity at the HTTP
	// layer so middleware and access logs can attribute without parsing.
	HeaderAnalyst = "X-Analyst"
)

// Ledger entry operations. Spend and refund move the analyst's cumulative
// budget; deny records a refused reservation without moving it.
const (
	LedgerSpend  = "spend"
	LedgerRefund = "refund"
	LedgerDeny   = "deny"
)

// LedgerEntry is one line of the append-only per-analyst privacy-loss
// ledger. Entries are ordered by Seq (a server-global sequence number —
// deliberately timestamp-free, so a fixed workload replays to an
// identical ledger) and carry enough to audit exactly when an analyst
// crossed which fraction of their budget: the canonical batch hash, the
// fresh-query cost, and the analyst's cumulative spend after the entry.
type LedgerEntry struct {
	Seq        int64  `json:"seq"`
	Analyst    string `json:"analyst"`
	Op         string `json:"op"`
	Backend    string `json:"backend"`
	QueryHash  string `json:"query_hash"`
	Cost       int    `json:"cost"`
	Cumulative int    `json:"cumulative"`
	Trace      string `json:"trace,omitempty"`
}

// LedgerResponse is the body of GET /v1/ledger: the full entry history
// (optionally filtered with ?analyst=) plus the current per-analyst net
// totals. ReplayLedger(Entries) == Totals always holds for an unfiltered
// response.
type LedgerResponse struct {
	V       int            `json:"v"`
	Budget  int            `json:"budget"` // configured per-analyst budget, 0 = unlimited
	Totals  map[string]int `json:"totals"`
	Entries []LedgerEntry  `json:"entries"`
}

// QueryRequest is the body of POST /v1/query/{backend}: a batch of subset
// queries from one analyst, each a bitmap over the server's n records.
// Query q is ⌈n/8⌉ bytes: bit i%8 of byte i/8 is set iff record i is in
// q, and every bit at or above n is zero. A set has exactly one bitmap,
// so every index order of it is one query to the answer cache and the
// budget. encoding/json writes each bitmap as a padded standard base64
// string. The server parses the body strictly (see codec.go): it accepts
// what json.Marshal writes for this type, with whitespace between
// tokens, and refuses anything else as bad_request, or a bitmap of the
// wrong length or with a bit at or above n as invalid_query.
type QueryRequest struct {
	V       int      `json:"v"`
	Analyst string   `json:"analyst,omitempty"`
	Queries [][]byte `json:"queries"`
}

// QueryResponse answers a QueryRequest: one answer per query in request
// order. Cached counts the queries served from the answer cache (which do
// not spend budget); BudgetRemaining is the analyst's remaining budget
// after this batch, or -1 when the server enforces no budget.
type QueryResponse struct {
	V               int       `json:"v"`
	Answers         []float64 `json:"answers"`
	Cached          int       `json:"cached"`
	BudgetRemaining int       `json:"budget_remaining"`
}

// Meta is the body of GET /v1/meta: everything a client needs to run an
// attack. Seed/N/P let an evaluation harness regenerate the dataset
// locally (remote.Dataset) to score reconstructions without the server
// ever shipping the raw bits over a query endpoint. The trailing fields
// describe the serving topology and overload semantics: how many shards
// partition the answer cache, how deep the server's admission queue is,
// and how long a shed client should back off before retrying.
type Meta struct {
	V        int      `json:"v"`
	N        int      `json:"n"`
	Seed     int64    `json:"seed"`
	P        float64  `json:"p"`
	Backends []string `json:"backends"`
	Budget   int      `json:"budget"`    // per-analyst fresh-query budget, 0 = unlimited
	MaxBatch int      `json:"max_batch"` // largest accepted batch

	Shards       int `json:"shards"`         // answer-cache partitions
	QueueDepth   int `json:"queue_depth"`    // the server's admission queue bound
	RetryAfterMs int `json:"retry_after_ms"` // suggested overload backoff
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	V   int       `json:"v"`
	Err ErrorBody `json:"error"`
}

// ErrorBody carries the machine-readable code and the human-readable
// message of a refusal. Overload refusals (CodeOverloaded) additionally
// carry RetryAfterMs, the server's backoff hint, which the client folds
// into its retry delay (the coarser HTTP Retry-After header is set too,
// for intermediaries that speak only seconds).
type ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int    `json:"retry_after_ms,omitempty"`
}

// Dataset regenerates the server's dataset from its advertised (seed, n,
// p). Server and scoring harness both call this, which is what makes
// remote reconstruction tables byte-identical to in-process ones: the
// truth is a pure function of the meta, never transmitted.
func Dataset(seed int64, n int, p float64) []int64 {
	return synth.BinaryDataset(rand.New(rand.NewSource(seed)), n, p)
}
