package analysis

import (
	"go/ast"
)

// CtxBackground flags context.Background() / context.TODO() in library
// (non-main, non-test) code. Minting a fresh root context severs the
// caller's cancellation chain: a -serve or remote run can no longer
// cancel the work it started, which is exactly the bug repolint caught in
// the experiments harness (recon_exp.go pre-fix). Library code must
// accept and thread a caller-supplied ctx; main packages own the root and
// are exempt, as are tests.
var CtxBackground = &Analyzer{
	Name: "ctxbackground",
	Run:  runCtxBackground,
}

func runCtxBackground(pass *Pass) error {
	if pass.Pkg.Name == "main" {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		ctxName, ok := ImportName(f.AST, "context")
		if !ok {
			continue
		}
		// Track the enclosing function stack so the message can say
		// whether a ctx parameter is already in scope (use it) or the
		// function should grow one.
		var stack []ast.Node
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var which string
			switch {
			case isPkgSel(call.Fun, ctxName, "Background"):
				which = "context.Background()"
			case isPkgSel(call.Fun, ctxName, "TODO"):
				which = "context.TODO()"
			default:
				return true
			}
			if ctxParamInScope(stack, ctxName) {
				pass.Reportf(call.Pos(), "%s in package %s: a ctx parameter is in scope — thread it instead of severing cancellation", which, pass.Pkg.Name)
			} else {
				pass.Reportf(call.Pos(), "%s in package %s: the enclosing function should accept a context.Context from its caller", which, pass.Pkg.Name)
			}
			return true
		})
	}
	return nil
}

// ctxParamInScope reports whether an enclosing function declaration or
// literal on the stack takes a context.Context parameter.
func ctxParamInScope(stack []ast.Node, ctxName string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch v := stack[i].(type) {
		case *ast.FuncDecl:
			ft = v.Type
		case *ast.FuncLit:
			ft = v.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			if isPkgSel(field.Type, ctxName, "Context") {
				return true
			}
		}
	}
	return false
}
