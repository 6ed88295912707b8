package remote

import (
	"fmt"
	"hash/fnv"
	"sync"

	"singlingout/internal/obs"
)

// ledger is the server's append-only privacy-loss accounting: every
// budget movement (spend, refund, denial) becomes an immutable
// LedgerEntry, and the per-analyst totals the server enforces are
// derived state — ReplayLedger over the entry history reconstructs them
// exactly. This replaces the bare analyst->int budget map: the paper's
// framing is that privacy loss is a quantifiable, accountable resource,
// and a flat counter cannot answer an auditor's "when did this analyst
// cross half their budget, and on which queries?".
//
// One mutex serializes every entry: under it the ledger assigns the
// entry's sequence number, appends its line to the WAL and applies it,
// so the log is in sequence order by construction. Sequence numbers are
// timestamp-free by design — under a deterministic (sequential) workload
// the whole ledger is byte-identical across runs, which is what lets
// cmd/loadgen pin its two-run invariance test on the ledger summary.
//
// Durability: when a wal is attached, an entry is appended to the log
// BEFORE it is applied in memory. A failed disk write therefore leaves
// the ledger unmoved and fails the request — the server refuses to move
// budget it cannot account for durably.
type ledger struct {
	wal        *wal         // nil = in-memory only
	walAppends *obs.Counter // qserver.wal_appends: entries the wal took

	mu      sync.Mutex
	seq     int64 // the last entry's sequence number
	entries []LedgerEntry
	totals  map[string]int
}

// newLedger resumes a ledger from a replayed history and the totals
// ReplayLedger folded from it; appends counts the entries w takes.
func newLedger(w *wal, appends *obs.Counter, entries []LedgerEntry, totals map[string]int) *ledger {
	l := &ledger{wal: w, walAppends: appends, entries: entries, totals: totals}
	if len(entries) > 0 {
		l.seq = entries[len(entries)-1].Seq
	}
	return l
}

// add appends one entry under the held lock (WAL first) and returns it.
func (l *ledger) add(op, analyst, backend, hash, trace string, cost, cumulative int) (LedgerEntry, error) {
	e := LedgerEntry{
		Seq: l.seq + 1, Analyst: analyst, Op: op, Backend: backend,
		QueryHash: hash, Cost: cost, Cumulative: cumulative, Trace: trace,
	}
	if l.wal != nil {
		if err := l.wal.append(e); err != nil {
			return LedgerEntry{}, err
		}
		l.walAppends.Add(1)
	}
	l.seq = e.Seq
	l.entries = append(l.entries, e)
	return e, nil
}

// spend atomically checks the analyst's budget and appends either a spend
// entry (reserving cost fresh queries) or a deny entry (budget > 0 and
// the reservation would exceed it; the cumulative is left unmoved). ok
// reports whether the reservation was granted. budget == 0 never denies.
// A non-nil error means the WAL refused the append: nothing moved.
func (l *ledger) spend(analyst, backend, hash, trace string, cost, budget int) (e LedgerEntry, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.totals[analyst]
	if budget > 0 && cur+cost > budget {
		e, err = l.add(LedgerDeny, analyst, backend, hash, trace, cost, cur)
		return e, false, err
	}
	e, err = l.add(LedgerSpend, analyst, backend, hash, trace, cost, cur+cost)
	if err != nil {
		return LedgerEntry{}, false, err
	}
	l.totals[analyst] = cur + cost
	return e, true, nil
}

// refund reverses a prior spend (a batch that failed while being
// answered): the analyst's cumulative drops by cost.
func (l *ledger) refund(analyst, backend, hash, trace string, cost int) (LedgerEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.totals[analyst] - cost
	e, err := l.add(LedgerRefund, analyst, backend, hash, trace, cost, cur)
	if err != nil {
		return LedgerEntry{}, err
	}
	l.totals[analyst] = cur
	return e, nil
}

// total returns the analyst's current net spend.
func (l *ledger) total(analyst string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals[analyst]
}

// snapshot copies the entry history, in sequence order (filtered to one
// analyst when analyst != ""), and the current totals.
func (l *ledger) snapshot(analyst string) ([]LedgerEntry, map[string]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var entries []LedgerEntry
	for _, e := range l.entries {
		if analyst == "" || e.Analyst == analyst {
			entries = append(entries, e)
		}
	}
	totals := make(map[string]int, len(l.totals))
	for a, v := range l.totals {
		totals[a] = v
	}
	return entries, totals
}

// close syncs and closes the WAL, if any. An append racing it waits for
// the lock and then fails: the WAL is stopped.
func (l *ledger) close() error {
	if l.wal == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wal.Close()
}

// ReplayLedger folds an entry history back into the per-analyst net
// totals: spends add their cost, refunds subtract it, denials move
// nothing. An auditor replaying a /ledger response (or the budget.*
// journal events) must land exactly on the server's enforced state; the
// per-entry Cumulative field is cross-checked, and sequence numbers must
// strictly increase, so a tampered or reordered history fails loudly
// instead of replaying to a plausible wrong total.
// A history cannot hand spent budget back either: every entry's cost is
// positive (the server writes no entry for a zero-cost batch, and a
// denial records the cost it refused), and no cumulative goes negative
// (a refund never exceeds the spend it reverses). The server itself runs
// this over its WAL on startup — a restart that cannot replay to a
// consistent state refuses to serve.
func ReplayLedger(entries []LedgerEntry) (map[string]int, error) {
	totals := map[string]int{}
	for i, e := range entries {
		if i > 0 && e.Seq <= entries[i-1].Seq {
			return nil, fmt.Errorf("remote: ledger entry %d (seq %d): does not follow seq %d", i, e.Seq, entries[i-1].Seq)
		}
		if e.Cost <= 0 {
			return nil, fmt.Errorf("remote: ledger entry %d (seq %d): %s of cost %d for %q, want a positive cost",
				i, e.Seq, e.Op, e.Cost, e.Analyst)
		}
		switch e.Op {
		case LedgerSpend:
			totals[e.Analyst] += e.Cost
		case LedgerRefund:
			totals[e.Analyst] -= e.Cost
		case LedgerDeny:
			// no movement
		default:
			return nil, fmt.Errorf("remote: ledger entry %d (seq %d): unknown op %q", i, e.Seq, e.Op)
		}
		if totals[e.Analyst] != e.Cumulative {
			return nil, fmt.Errorf("remote: ledger entry %d (seq %d): replayed cumulative %d for %q, entry says %d",
				i, e.Seq, totals[e.Analyst], e.Analyst, e.Cumulative)
		}
		if e.Cumulative < 0 {
			return nil, fmt.Errorf("remote: ledger entry %d (seq %d): %q refunded past their spend, cumulative %d",
				i, e.Seq, e.Analyst, e.Cumulative)
		}
	}
	return totals, nil
}

// batchHash is the canonical content hash of one batch's fresh queries
// (FNV-1a over the backend-qualified cache keys), the query_hash the
// ledger records so an auditor can tie a budget movement back to exactly
// which canonical queries were charged.
func batchHash(keys []string) string {
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
