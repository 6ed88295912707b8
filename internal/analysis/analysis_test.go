package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWantsScopes: each scoped analyzer's predicate admits its
// production packages and rejects a package outside them, and the
// fixture names too: analysistest.Run clears Wants, so fixtures need no
// clause of their own.
func TestWantsScopes(t *testing.T) {
	cases := []struct {
		analyzer string
		wants    func(*Package) bool
		admit    []string
	}{
		{"lockdiscipline", wantsLockedCode, []string{
			"singlingout/internal/query/remote", "singlingout/internal/obs"}},
		{"rawdataflow", wantsServingStack, []string{
			"singlingout/internal/query/remote", "singlingout/internal/obs",
			"singlingout/internal/obs/serve", "singlingout/cmd/qserver", "singlingout/cmd/reconstruct"}},
	}
	for _, c := range cases {
		for _, path := range c.admit {
			if !c.wants(&Package{Path: path}) {
				t.Errorf("%s: %s is out of scope, want it in", c.analyzer, path)
			}
		}
		for _, path := range []string{"singlingout/internal/lp", "lockdiscipline", "rawdataflow"} {
			if c.wants(&Package{Path: path}) {
				t.Errorf("%s: %s is in scope, want it out", c.analyzer, path)
			}
		}
	}
}

// TestIgnoreDirective pins the staticcheck-style strictness: the
// directive must start the comment, carry an analyzer list, and carry a
// reason.
func TestIgnoreDirective(t *testing.T) {
	cases := []struct {
		text          string
		wantAnalyzers []string
		ok, malformed bool
	}{
		{"//lint:ignore determinism labelled timing output", []string{"determinism"}, true, false},
		{"//lint:ignore boundedgo,obsnames two at once", []string{"boundedgo", "obsnames"}, true, false},
		{"//lint:ignore determinism", nil, true, true}, // no reason
		{"//lint:ignore", nil, true, true},             // no list, no reason
		{"// lint:ignore determinism spaced is prose, not a directive", nil, false, false},
		{"// suppress with lint:ignore when needed", nil, false, false},
		{"//lint:ignorexyz not the directive", nil, false, false},
		{"// plain comment", nil, false, false},
	}
	for _, c := range cases {
		got, ok, malformed := ignoreDirective(c.text)
		if ok != c.ok || malformed != c.malformed {
			t.Errorf("ignoreDirective(%q) = ok=%v malformed=%v, want ok=%v malformed=%v", c.text, ok, malformed, c.ok, c.malformed)
			continue
		}
		if strings.Join(got, ",") != strings.Join(c.wantAnalyzers, ",") {
			t.Errorf("ignoreDirective(%q) analyzers = %v, want %v", c.text, got, c.wantAnalyzers)
		}
	}
}

// TestImportName covers default, renamed, blank, and absent imports.
func TestImportName(t *testing.T) {
	src := `package p
import (
	"math/rand"
	crand "crypto/rand"
	_ "net/http/pprof"
)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := ImportName(f, "math/rand"); !ok || name != "rand" {
		t.Errorf("math/rand = %q,%v; want rand,true", name, ok)
	}
	if name, ok := ImportName(f, "crypto/rand"); !ok || name != "crand" {
		t.Errorf("crypto/rand = %q,%v; want crand,true", name, ok)
	}
	if _, ok := ImportName(f, "net/http/pprof"); ok {
		t.Error("blank import should not resolve to a usable name")
	}
	if _, ok := ImportName(f, "context"); ok {
		t.Error("absent import should not resolve")
	}
}

// TestSuppression runs a real analyzer over an in-memory package and
// checks that a directive covers its own line and the next, names the
// right analyzer, and that malformed and stale directives surface as
// findings.
func TestSuppression(t *testing.T) {
	dir := t.TempDir()
	src := `package recon

import "time"

func a() time.Time {
	//lint:ignore determinism labelled timing
	return time.Now()
}

func b() time.Time {
	return time.Now() //lint:ignore determinism trailing form
}

func c() time.Time {
	//lint:ignore sentinelcmp wrong analyzer name
	return time.Now()
}

func d() time.Time {
	//lint:ignore determinism
	return time.Now()
}
`
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "recon")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAll([]*Analyzer{Determinism}, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	var open, suppressed, malformed, stale int
	for _, d := range diags {
		switch {
		case d.Analyzer == "repolint" && strings.HasPrefix(d.Message, "malformed"):
			malformed++
		case d.Analyzer == "repolint" && strings.HasPrefix(d.Message, "stale lint:ignore sentinelcmp"):
			stale++
		case d.Suppressed:
			suppressed++
		default:
			open++
		}
	}
	// a and b are suppressed; c names the wrong analyzer and d's directive
	// is malformed (no reason), so both time.Now calls stay findings, and
	// c's directive, which suppressed nothing, is reported as stale.
	if suppressed != 2 || open != 2 || malformed != 1 || stale != 1 || len(diags) != 6 {
		t.Errorf("got open=%d suppressed=%d malformed=%d stale=%d of %d, want 2/2/1/1 of 6\n%v", open, suppressed, malformed, stale, len(diags), diags)
	}
}

// TestModuleRootAndLoad resolves this repository's own module and loads a
// package through the pattern path used by cmd/repolint.
func TestModuleRootAndLoad(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "singlingout" {
		t.Errorf("module path = %q, want singlingout", modPath)
	}
	pkgs, err := Load(root, modPath, []string{"./internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	var self, fixtures bool
	for _, p := range pkgs {
		if p.Path == "singlingout/internal/analysis" {
			self = true
		}
		if strings.Contains(p.Dir, "testdata") {
			fixtures = true
		}
	}
	if !self {
		t.Error("Load did not find singlingout/internal/analysis")
	}
	if fixtures {
		t.Error("Load must skip testdata fixtures, like the go tool")
	}
}
