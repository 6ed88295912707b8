package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"singlingout/internal/analysis"
)

// buildCFG parses a function body and returns its CFG.
func buildCFG(t *testing.T, body string) *analysis.CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return analysis.NewCFG(fd.Body)
}

// exitReachable reports whether a path leads from g's entry to its exit.
func exitReachable(g *analysis.CFG) bool {
	seen := map[*analysis.Block]bool{g.Entry: true}
	work := []*analysis.Block{g.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, to := range blk.Succs {
			if !seen[to] {
				seen[to] = true
				work = append(work, to)
			}
		}
	}
	return seen[g.Exit]
}

func TestCFGIf(t *testing.T) {
	g := buildCFG(t, `
		x := 1
		if x > 0 {
			x = 2
		} else {
			x = 3
		}
		_ = x
	`)
	// The block evaluating the condition branches to both arms.
	var cond *analysis.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.BinaryExpr); ok {
				cond = b
			}
		}
	}
	if cond == nil || len(cond.Succs) != 2 {
		t.Fatalf("if/else: want the condition's block to have 2 successors (then, else), got %v", cond)
	}
	if !exitReachable(g) {
		t.Fatal("exit not reachable from entry")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	g := buildCFG(t, `
		x := 1
		if x > 0 {
			return
		}
		x = 2
		_ = x
	`)
	// The return statement's block must flow straight to Exit.
	foundReturnEdge := false
	for _, b := range g.Blocks {
		hasReturn := false
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				hasReturn = true
			}
		}
		if !hasReturn {
			continue
		}
		for _, to := range b.Succs {
			if to == g.Exit {
				foundReturnEdge = true
			}
		}
	}
	if !foundReturnEdge {
		t.Fatal("early return: no edge from the return block to Exit")
	}
}

func TestCFGForLoop(t *testing.T) {
	g := buildCFG(t, `
		for i := 0; i < 10; i++ {
			_ = i
		}
	`)
	// A loop must contain a back edge (a successor with a smaller or
	// equal block index than some block reachable from it).
	back := false
	for _, b := range g.Blocks {
		for _, to := range b.Succs {
			if to.Index < b.Index && to != g.Exit {
				back = true
			}
		}
	}
	if !back {
		t.Fatal("for loop: no back edge found")
	}
	if !exitReachable(g) {
		t.Fatal("for loop: exit unreachable (cond-false edge missing)")
	}
}

func TestCFGSwitchDefault(t *testing.T) {
	withDefault := buildCFG(t, `
		switch x := 1; x {
		case 1:
		default:
		}
	`)
	withoutDefault := buildCFG(t, `
		switch x := 1; x {
		case 1:
		}
	`)
	// Both shapes must keep Exit reachable; the no-default switch does so
	// via the implicit entry→after edge.
	if !exitReachable(withDefault) {
		t.Fatal("switch with default: exit unreachable")
	}
	if !exitReachable(withoutDefault) {
		t.Fatal("switch without default: exit unreachable (implicit skip edge missing)")
	}
}

func TestCFGDefer(t *testing.T) {
	g := buildCFG(t, `
		defer println("a")
		defer println("b")
		println("body")
	`)
	if len(g.Defers) != 2 {
		t.Fatalf("defers: want 2 collected, got %d", len(g.Defers))
	}
}

func TestCFGRange(t *testing.T) {
	g := buildCFG(t, `
		xs := []int{1, 2}
		for _, x := range xs {
			_ = x
		}
	`)
	// The range head must branch both into the body and past the loop.
	var head *analysis.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatal("range: no head block holding the RangeStmt")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("range head: want 2 successors (body, after), got %d", len(head.Succs))
	}
}
