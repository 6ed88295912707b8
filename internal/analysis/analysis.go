// Package analysis is the repository's invariant-checking suite: a
// minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// plus the repo-specific analyzers that cmd/repolint compiles into a
// multichecker. The module deliberately has no third-party dependencies,
// so the framework is built on the go/ast, go/parser, go/token and
// go/types standard packages only. Two analyzer styles coexist:
//
//   - syntactic walkers (import-resolved selector matching), enough for
//     the determinism/sentinel/ctx/naming/goroutine invariants; and
//   - dataflow analyzers, which request go/types information
//     (Analyzer.NeedsTypes), build an intra-procedural CFG per function
//     (cfg.go) and solve a forward may-analysis over it with Forward,
//     either through the taint engine (taint.go) or with a lattice of
//     their own — raw microdata never reaching the wire and lock
//     discipline are path properties that no AST walk can express.
//
// Unlike x/tools, a Diagnostic carries no suggested fix: the suite only
// reports.
//
// The enforced invariants — why each exists and how to suppress a false
// positive — are documented in docs/INVARIANTS.md. Suppression uses a
// staticcheck-style directive:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory; a directive without one is itself reported, and so is
// each listed analyzer that reported nothing the directive covers.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Analyzer is one named invariant check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Run  func(*Pass) error

	// NeedsTypes requests go/types information: before Run, the package
	// is type-checked (best effort — see typecheck.go) and Pass.TypesInfo
	// is populated. Syntactic analyzers leave this false and pay nothing.
	NeedsTypes bool

	// Wants, when non-nil, restricts the analyzer to packages it returns
	// true for. It is consulted before type-checking, so a scoped
	// dataflow analyzer only triggers type-checking where it runs.
	Wants func(*Package) bool
}

// SourceFile is one parsed file of a package under analysis.
type SourceFile struct {
	Path string // filesystem path, for diagnostics
	Test bool   // *_test.go, or member of an external _test package
	AST  *ast.File
	// ignores holds the file's well-formed lint:ignore directives. A
	// directive covers its own line and the line immediately below it,
	// so it works both trailing the offending statement and on its own
	// line above it.
	ignores []directive
	// badDirectives records malformed lint:ignore comments (missing
	// analyzer list or reason); the driver reports them as findings.
	badDirectives []Diagnostic
}

// Package is one package (one directory) under analysis.
type Package struct {
	Name  string // package name, e.g. "experiments"
	Path  string // slash-separated import path, e.g. "singlingout/internal/experiments"
	Dir   string // directory the files were loaded from
	Files []*SourceFile
	Fset  *token.FileSet

	// Resolver maps an import path to the directory holding its source,
	// for type-checking module-local (or fixture-local) dependencies.
	// Load installs a module resolver; analysistest installs a
	// testdata/src resolver. nil = only stdlib imports resolve.
	Resolver func(importPath string) (dir string, ok bool)

	// Types and Info are populated on demand by EnsureTypes (typecheck.go)
	// for analyzers that declare NeedsTypes. Both may be partial: type
	// checking is tolerant, and analyzers must handle missing entries.
	Types   *types.Package
	Info    *types.Info
	checked bool
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool // a lint:ignore directive covers this line
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one (analyzer, package) unit of work, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet
	// TypesInfo is the package's (possibly partial) go/types resolution;
	// nil unless the analyzer declared NeedsTypes. TypesPkg is the
	// checked package object.
	TypesInfo *types.Info
	TypesPkg  *types.Package
	diags     *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ImportName resolves the local name under which file f imports
// importPath: the explicit name for renamed imports, the path's base
// otherwise, and ok=false when the path is not imported (or is imported
// only for side effects).
func ImportName(f *ast.File, importPath string) (name string, ok bool) {
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if spec.Name != nil {
			if spec.Name.Name == "_" || spec.Name.Name == "." {
				return "", false
			}
			return spec.Name.Name, true
		}
		return path.Base(p), true
	}
	return "", false
}

// isPkgSel reports whether e is the selector pkgName.sel where pkgName is
// a bare identifier (the usual package-qualified call shape).
func isPkgSel(e ast.Expr, pkgName, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == pkgName
}

// ignoreDirective parses an "//lint:ignore a,b reason" comment. Like
// staticcheck, the directive must start the comment with no space after
// the slashes, so prose mentioning lint:ignore is not a directive.
// Returns ok=false for non-directives; a directive with a missing
// analyzer list or reason yields malformed=true.
func ignoreDirective(text string) (analyzers []string, ok, malformed bool) {
	rest, ok := strings.CutPrefix(text, "//lint:ignore")
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, false, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, true, true // need both an analyzer list and a reason
	}
	for _, a := range strings.Split(fields[0], ",") {
		if a = strings.TrimSpace(a); a != "" {
			analyzers = append(analyzers, a)
		}
	}
	return analyzers, true, len(analyzers) == 0
}

// directive is one well-formed lint:ignore comment: where it is and the
// analyzer names it lists.
type directive struct {
	pos   token.Position
	names []string
}

// covers reports whether name, one of d's names, silences a finding of
// analyzer at line.
func (d directive) covers(name, analyzer string, line int) bool {
	return (line == d.pos.Line || line == d.pos.Line+1) && (name == analyzer || name == "all")
}

// collectIgnores scans a parsed file's comments for lint:ignore
// directives, populating f.ignores and f.badDirectives.
func (f *SourceFile) collectIgnores(fset *token.FileSet) {
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			names, ok, malformed := ignoreDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			if malformed {
				f.badDirectives = append(f.badDirectives, Diagnostic{
					Analyzer: "repolint",
					Pos:      pos,
					Message:  "malformed lint:ignore directive: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
				})
				continue
			}
			f.ignores = append(f.ignores, directive{pos: pos, names: names})
		}
	}
}

// suppressed reports whether a diagnostic from analyzer at line is
// covered by a directive on that line or the line above.
func (f *SourceFile) suppressed(analyzer string, line int) bool {
	for _, d := range f.ignores {
		for _, name := range d.names {
			if d.covers(name, analyzer, line) {
				return true
			}
		}
	}
	return false
}

// staleDirectives reports each name in f's directives that suppressed
// none of diags, its package's findings: a directive for an analyzer
// that does not run on f, that found nothing there, or that does not
// exist would otherwise silently do nothing.
func (f *SourceFile) staleDirectives(diags []Diagnostic) []Diagnostic {
	var stale []Diagnostic
	for _, d := range f.ignores {
		for _, name := range d.names {
			used := slices.ContainsFunc(diags, func(g Diagnostic) bool {
				return g.Suppressed && g.Pos.Filename == f.Path && d.covers(name, g.Analyzer, g.Pos.Line)
			})
			if !used {
				stale = append(stale, Diagnostic{
					Analyzer: "repolint",
					Pos:      d.pos,
					Message:  fmt.Sprintf("stale lint:ignore %s: it suppresses no finding on this line or the next", name),
				})
			}
		}
	}
	return stale
}

// Run applies one analyzer to one package and returns its diagnostics
// with suppression already resolved (suppressed findings are returned,
// flagged, so callers can count them). Analyzers scoped via Wants are
// skipped silently outside their scope; NeedsTypes analyzers get the
// package type-checked first (best effort).
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	if a.Wants != nil && !a.Wants(pkg) {
		return nil, nil
	}
	if a.NeedsTypes {
		pkg.EnsureTypes()
	}
	var diags []Diagnostic
	pass := &Pass{Analyzer: a, Pkg: pkg, Fset: pkg.Fset, TypesInfo: pkg.Info, TypesPkg: pkg.Types, diags: &diags}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
	}
	byFile := map[string]*SourceFile{}
	for _, f := range pkg.Files {
		byFile[f.Path] = f
	}
	for i := range diags {
		if f := byFile[diags[i].Pos.Filename]; f != nil && f.suppressed(a.Name, diags[i].Pos.Line) {
			diags[i].Suppressed = true
		}
	}
	return diags, nil
}

// RunAll applies every analyzer to every package, appends malformed
// lint:ignore directives and each directive name that suppressed none
// of the analyzers' findings as findings, and returns the result sorted
// by position.
func RunAll(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		var found []Diagnostic
		for _, a := range analyzers {
			diags, err := Run(a, pkg)
			if err != nil {
				return nil, err
			}
			found = append(found, diags...)
		}
		all = append(all, found...)
		for _, f := range pkg.Files {
			all = append(all, f.badDirectives...)
			all = append(all, f.staleDirectives(found)...)
		}
	}
	SortDiagnostics(all)
	return all, nil
}

// SortDiagnostics orders findings by (file, line, column, analyzer) —
// the full tie-break makes repolint output byte-deterministic even when
// two analyzers fire on the same position.
func SortDiagnostics(all []Diagnostic) {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos.Filename != all[j].Pos.Filename {
			return all[i].Pos.Filename < all[j].Pos.Filename
		}
		if all[i].Pos.Line != all[j].Pos.Line {
			return all[i].Pos.Line < all[j].Pos.Line
		}
		if all[i].Pos.Column != all[j].Pos.Column {
			return all[i].Pos.Column < all[j].Pos.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
}

// All returns the full repolint suite in stable order: the five
// syntactic invariants, then the two type-aware dataflow invariants.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		SentinelCmp,
		CtxBackground,
		ObsNames,
		BoundedGo,
		RawDataFlow,
		LockDiscipline,
	}
}
