package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestPSOTablesGolden pins the quick seed-1 tables of the prefix-descent
// experiments to testdata/<ID>.quick.golden, so that a change to the
// count oracles or the hash predicates that moves any count, success
// rate or verdict fails here. A golden file is the table as
// `go run ./cmd/repro -quick -id <ID>` prints it, without the
// "[… completed in …]" timing line.
func TestPSOTablesGolden(t *testing.T) {
	for _, id := range []string{"E08", "E09", "A02"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".quick.golden"))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := r.Run(context.Background(), 1, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := tab.String(); got != string(want) {
			t.Errorf("%s table differs from its golden file:\n--- got\n%s--- want\n%s", id, got, want)
		}
	}
}
