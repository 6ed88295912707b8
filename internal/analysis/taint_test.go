package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"singlingout/internal/analysis"
)

// taintProgram defines a tiny vocabulary — source() produces tainted
// slices, sink(...) is the egress, sanitize() launders, count() returns
// a scalar — and one function per dataflow shape under test.
const taintProgram = `package p

func source() []int { return nil }
func sink(args ...interface{}) {}
func sanitize(x []int) []int { return x }
func count(x []int) int { return len(x) }

func direct() { sink(source()) }
func flow() { x := source(); y := x; sink(y) }
func kill() { x := source(); x = nil; sink(x) }
func branchJoin(c bool) { x := []int{}; if c { x = source() }; sink(x) }
func branchClean(c bool) { x := source(); if c { x = nil; sink(x) } }
func scalar() { sink(count(source())) }
func sanitized() { sink(sanitize(source())) }
func rangeFlow() { xs := source(); for _, v := range xs { sink(v) } }
func closure() { x := source(); f := func() { sink(x) }; f() }
func derived() { x := source(); y := append(x, 1); sink(y) }
`

// wantFindings maps each function to the number of sink violations the
// engine must report in it.
var wantFindings = map[string]int{
	"direct":      1,
	"flow":        1,
	"kill":        0,
	"branchJoin":  1, // tainted on one incoming path suffices
	"branchClean": 0, // the sink only runs on the overwritten arm
	"scalar":      0, // int cannot carry
	"sanitized":   0,
	"rangeFlow":   1, // element of a tainted slice
	"closure":     1, // sink inside a literal sees the creation state
	"derived":     1, // builtin append propagates
}

func TestTaintEngine(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", taintProgram, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Error: func(error) {}}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}

	calleeName := func(call *ast.CallExpr) string {
		if id, ok := call.Fun.(*ast.Ident); ok {
			return id.Name
		}
		return ""
	}
	spec := analysis.TaintSpec{
		Source: func(x ast.Expr) bool {
			call, ok := x.(*ast.CallExpr)
			return ok && calleeName(call) == "source"
		},
		Sink: func(call *ast.CallExpr) ([]int, string, bool) {
			if calleeName(call) == "sink" {
				return nil, "sink", true
			}
			return nil, "", false
		},
		Sanitizer: func(call *ast.CallExpr) bool { return calleeName(call) == "sanitize" },
		Carrier:   analysis.ScalarCarrier,
	}

	for _, fb := range analysis.FuncBodies(f) {
		want, ok := wantFindings[fb.Name]
		if !ok {
			continue // the vocabulary functions themselves
		}
		g := analysis.NewCFG(fb.Body)
		got := len(analysis.RunTaint(info, g, spec))
		if got != want {
			t.Errorf("%s: want %d finding(s), got %d", fb.Name, want, got)
		}
	}
}
