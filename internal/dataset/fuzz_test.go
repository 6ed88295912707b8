package dataset

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV ensures CSV ingestion never panics and that anything it
// accepts round-trips through WriteCSV.
func FuzzReadCSV(f *testing.F) {
	f.Add("zip,age\n12345,30\n")
	f.Add("zip,age\n99999,120\n10000,0\n")
	f.Add("zip,age\n")
	f.Add("")
	f.Add("zip,age\nxx,yy\n")
	f.Add("zip\n1\n")
	schema := MustSchema(
		Attribute{Name: "zip", Kind: Int, Min: 10000, Max: 99999},
		Attribute{Name: "age", Kind: Int, Min: 0, Max: 120},
	)
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadCSV(strings.NewReader(input), schema)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		back, err := ReadCSV(&buf, schema)
		if err != nil {
			t.Fatalf("serialized dataset failed to parse: %v", err)
		}
		if back.Len() != d.Len() {
			t.Fatalf("round trip changed length: %d != %d", back.Len(), d.Len())
		}
		for i := range d.Rows {
			if !slices.Equal(d.Rows[i], back.Rows[i]) {
				t.Fatalf("round trip changed row %d", i)
			}
		}
	})
}
