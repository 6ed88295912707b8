package remote_test

import (
	"testing"

	"singlingout/internal/query/remote"
)

// FuzzReplayLedger decodes the fuzz bytes into a ledger history — four
// bytes per entry: analyst, op, cost (signed) and how far the recorded
// cumulative strays from the honest running total — and checks
// ReplayLedger against an independent fold of the ops (spend +cost,
// refund −cost, deny 0). A history is acceptable exactly when every op is
// known, every cost is positive, every recorded cumulative equals the
// fold so far and none is negative; ReplayLedger must accept exactly
// those histories, and its totals must equal the fold's.
func FuzzReplayLedger(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 1, 0, 2, 0, 0, 1, 1, 0, 0, 2, 9, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0})    // refund past the spend
	f.Add([]byte{2, 0, 0, 0})                // zero cost
	f.Add([]byte{1, 0, 4, 0, 1, 3, 1, 0})    // unknown op
	f.Add([]byte{0, 0, 5, 0, 0, 0, 5, 1})    // tampered cumulative
	f.Add([]byte{0, 2, 4, 0, 1, 2, 4, 0, 0}) // denials only, trailing byte
	ops := []string{remote.LedgerSpend, remote.LedgerRefund, remote.LedgerDeny, "bogus"}
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []remote.LedgerEntry
		honest := map[string]int{}
		for i := 0; i+4 <= len(data); i += 4 {
			e := remote.LedgerEntry{
				Seq:     int64(i / 4),
				Analyst: string(rune('a' + data[i]%3)),
				Op:      ops[data[i+1]%4],
				Cost:    int(int8(data[i+2])),
			}
			switch e.Op {
			case remote.LedgerSpend:
				honest[e.Analyst] += e.Cost
			case remote.LedgerRefund:
				honest[e.Analyst] -= e.Cost
			}
			// Mostly honest cumulatives, so accepted histories are common.
			stray := 0
			if d := int(int8(data[i+3])); d%4 != 0 {
				stray = d
			}
			e.Cumulative = honest[e.Analyst] + stray
			entries = append(entries, e)
		}

		wantOK := true
		fold := map[string]int{}
		for _, e := range entries {
			switch e.Op {
			case remote.LedgerSpend:
				fold[e.Analyst] += e.Cost
			case remote.LedgerRefund:
				fold[e.Analyst] -= e.Cost
			case remote.LedgerDeny:
			default:
				wantOK = false
			}
			if e.Cost <= 0 || e.Cumulative != fold[e.Analyst] || e.Cumulative < 0 {
				wantOK = false
			}
		}

		totals, err := remote.ReplayLedger(entries)
		if (err == nil) != wantOK {
			t.Fatalf("ReplayLedger err = %v, want acceptable = %v, for %+v", err, wantOK, entries)
		}
		if err != nil {
			return
		}
		for a, v := range fold {
			if totals[a] != v {
				t.Fatalf("analyst %q: replayed total %d, fold %d", a, totals[a], v)
			}
		}
		for a, v := range totals {
			if v < 0 || v != fold[a] {
				t.Fatalf("analyst %q: replayed total %d, fold %d", a, v, fold[a])
			}
		}
	})
}
