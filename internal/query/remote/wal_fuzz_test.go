package remote

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzWAL writes arbitrary bytes as a ledger WAL. Whatever ReadWAL
// accepts must come back sorted by Seq — it sorts nothing, so it must
// refuse a log whose lines are out of order — and must stay appendable:
// an entry appended through openWAL with the next Seq reads back after
// exactly the entries that were there before.
func FuzzWAL(f *testing.F) {
	const (
		e1       = `{"seq":1,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":1}`
		e2       = `{"seq":2,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":2}`
		tampered = `{"seq":2,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":5}`
	)
	for _, seed := range []string{
		e1 + "\n" + e2 + "\n",                           // intact log
		e1 + "\n" + `{"seq":99,"analyst":"a","op":"spe`, // torn tail
		e1 + "\n" + e2,                                  // missing final newline
		"\n" + e1 + "\n\n" + e2 + "\n\n",                // blank lines
		e1 + "\nnot json at all\n" + e2 + "\n",          // mid-file garbage
		e1 + "\n" + tampered + "\n",                     // tampered chain
		"",                                              // empty file
		e2 + "\n" + e1 + "\n",                           // swapped lines
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ledger.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := ReadWAL(path)
		if err != nil {
			return
		}
		if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq }) {
			t.Fatalf("entries not sorted by seq: %+v", entries)
		}
		next := LedgerEntry{Seq: 1, Analyst: "fuzz", Op: LedgerSpend, Backend: "exact", QueryHash: "h", Cost: 1, Cumulative: 1}
		if len(entries) > 0 {
			last := entries[len(entries)-1].Seq
			if last == math.MaxInt64 {
				t.Skip("no sequence number follows MaxInt64")
			}
			next.Seq = last + 1
		}
		w, _, err := openWAL(path, false)
		if err != nil {
			t.Fatalf("openWAL over a log ReadWAL accepts: %v", err)
		}
		if err := w.append(next); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadWAL(path)
		if err != nil {
			t.Fatalf("ReadWAL after an append: %v", err)
		}
		if want := append(entries, next); !reflect.DeepEqual(got, want) {
			t.Fatalf("after appending seq %d: read %+v, want %+v", next.Seq, got, want)
		}
	})
}
