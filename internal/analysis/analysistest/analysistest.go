// Package analysistest runs an analyzer over fixture packages under
// testdata/src and checks its diagnostics against // want annotations,
// mirroring golang.org/x/tools/go/analysis/analysistest without the
// dependency.
//
// A fixture line expecting a diagnostic carries a trailing comment:
//
//	rand.Intn(6) // want `global rand\.Intn`
//
// The backquoted (or double-quoted) text is a regexp that must match the
// message of a diagnostic reported on that line. Lines without a want
// comment must produce no diagnostics, and every want must be matched —
// both directions fail the test. Suppressed diagnostics (lint:ignore)
// count as absent, so fixtures can also assert the escape hatch works.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"singlingout/internal/analysis"
)

// want is one expectation: a regexp on a specific file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE extracts the annotation payloads from a `// want ...` comment:
// one or more backquoted or double-quoted regexps.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run loads each fixture package dir (relative to testdata/src, also
// serving as its import path) and checks analyzer diagnostics against the
// fixture's want annotations. The analyzer runs with its Wants scope
// cleared, so a scoped analyzer's predicate names only production
// packages and its fixtures run all the same.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	unscoped := *a
	unscoped.Wants = nil
	for _, pkgPath := range pkgPaths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
		pkg, err := analysis.LoadDir(dir, pkgPath)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		if pkg == nil {
			t.Fatalf("%s: no Go files in %s", pkgPath, dir)
		}
		// Type-aware analyzers resolve fixture imports (including stub
		// packages standing in for module internals) against testdata/src.
		pkg.Resolver = srcResolver(filepath.Join("testdata", "src"))
		diags, err := analysis.Run(&unscoped, pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		wants, err := collectWants(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		checkDiagnostics(t, pkgPath, diags, wants)
	}
}

// srcResolver maps import paths onto fixture directories under
// testdata/src, mirroring how analysis.Load resolves module-local
// imports. Paths with no fixture directory fall through to the stdlib
// importer.
func srcResolver(srcRoot string) func(string) (string, bool) {
	abs, err := filepath.Abs(srcRoot)
	if err != nil {
		abs = srcRoot
	}
	return func(importPath string) (string, bool) {
		dir := filepath.Join(abs, filepath.FromSlash(importPath))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
}

// collectWants scans every fixture file's comments for want annotations.
func collectWants(pkg *analysis.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantRE.FindAllStringSubmatch(rest, -1)
				if len(matches) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, m := range matches {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// checkDiagnostics matches diagnostics to wants one-to-one by (file,
// line, regexp) and reports both unexpected diagnostics and unmatched
// wants.
func checkDiagnostics(t *testing.T, pkgPath string, diags []analysis.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic %s", pkgPath, d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: no diagnostic matching %q", pkgPath, w.file, w.line, w.re)
		}
	}
}
