package main

import (
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"singlingout/internal/obs/serve"
	"singlingout/internal/synth"
)

// TestGenerateThenAnonymize drives run as the usage lines do: generate a
// population CSV, then anonymize it with full-domain generalization and
// with ℓ-diverse Mondrian, each writing its release with -out. In each
// release every group of rows with the same quasi-identifier labels must
// hold at least k rows, and the categorical sex column must read by
// category name: F, M, or * for both.
func TestGenerateThenAnonymize(t *testing.T) {
	dir := t.TempDir()
	tool := serve.AddToolFlags(flag.NewFlagSet("anonymize", flag.ContinueOnError), "anonymize")
	raw := filepath.Join(dir, "raw.csv")
	if err := run(tool, options{generate: 400, out: raw, seed: 1}); err != nil {
		t.Fatalf("-generate: %v", err)
	}
	const k = 5
	qi := []string{synth.AttrZIP, synth.AttrBirthDate, synth.AttrSex}
	for _, o := range []options{
		{alg: "fulldomain"},
		{alg: "mondrian", lDiv: 2},
	} {
		o.in, o.out, o.k, o.qi, o.seed = raw, filepath.Join(dir, o.alg+".csv"), k, strings.Join(qi, ","), 1
		if err := run(tool, o); err != nil {
			t.Fatalf("-alg %s: %v", o.alg, err)
		}
		f, err := os.Open(o.out)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("-alg %s: %v", o.alg, err)
		}
		if len(rows) < 1+k {
			t.Fatalf("-alg %s: %d lines, want a header and at least %d rows", o.alg, len(rows), k)
		}
		col := map[string]int{}
		for i, name := range rows[0] {
			col[name] = i
		}
		sex, ok := col[synth.AttrSex]
		if !ok {
			t.Fatalf("-alg %s: no %q column in header %v", o.alg, synth.AttrSex, rows[0])
		}
		groups := map[string]int{}
		for _, row := range rows[1:] {
			if v := row[sex]; v != "F" && v != "M" && v != "*" {
				t.Fatalf("-alg %s: %s cell %q, want F, M or *", o.alg, synth.AttrSex, v)
			}
			var key []string
			for _, name := range qi {
				i, ok := col[name]
				if !ok {
					t.Fatalf("-alg %s: no %q column in header %v", o.alg, name, rows[0])
				}
				key = append(key, row[i])
			}
			groups[strings.Join(key, "|")]++
		}
		for key, n := range groups {
			if n < k {
				t.Errorf("-alg %s: %d rows labelled %s, want at least k = %d", o.alg, n, key, k)
			}
		}
		t.Logf("-alg %s: %d rows in %d groups", o.alg, len(rows)-1, len(groups))
	}
}
