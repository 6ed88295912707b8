package analysis

import (
	"go/ast"
	"strings"
)

// BoundedGo flags bare `go` statements in internal/ packages outside
// internal/par. Unbounded fan-out breaks two guarantees at once: the
// worker-count invariance of reconstruction tables (par derives per-item
// RNGs and dispenses indices in order — a raw goroutine has neither) and
// the qserver's bounded-concurrency contract (its admission queue,
// sized by MaxConcurrent and QueueDepth). cmd/ packages are exempt:
// a main owning its process may run an HTTP server or signal loop on a
// raw goroutine.
var BoundedGo = &Analyzer{
	Name: "boundedgo",
	Run:  runBoundedGo,
}

func runBoundedGo(pass *Pass) error {
	if !strings.Contains(pass.Pkg.Path+"/", "internal/") || strings.HasSuffix(pass.Pkg.Path, "internal/par") {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue // test helpers may spin goroutines freely
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "bare go statement in %s: route fan-out through par.ForEach", pass.Pkg.Path)
			}
			return true
		})
	}
	return nil
}
