package analysis

import (
	"go/ast"
	"go/token"
	"strings"
	"unicode"
)

// SentinelCmp flags == / != comparisons against exported error sentinels
// (ErrFoo, io.EOF). PR 4 made query.ErrBudgetExhausted and
// query.ErrInvalidQuery flow through oracle wrappers and the wire client
// wrapped (%w), so identity comparison silently stops matching; errors.Is
// is the only comparison that survives wrapping.
var SentinelCmp = &Analyzer{
	Name: "sentinelcmp",
	Run:  runSentinelCmp,
}

func runSentinelCmp(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		// Tests are in scope: assertions on wrapped sentinels are exactly
		// where identity comparison bites hardest.
		ast.Inspect(f.AST, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				if name, ok := sentinelName(side); ok {
					pass.Reportf(be.Pos(), "%s compared with %s: use errors.Is (sentinels may arrive wrapped)", name, be.Op)
					break
				}
			}
			return true
		})
	}
	return nil
}

// sentinelName reports whether e denotes an exported error-sentinel
// value: an identifier or package-qualified selector named ErrXxx or EOF.
func sentinelName(e ast.Expr) (string, bool) {
	var name, qual string
	switch v := e.(type) {
	case *ast.Ident:
		name = v.Name
	case *ast.SelectorExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			qual = id.Name + "."
		}
		name = v.Sel.Name
	default:
		return "", false
	}
	if name == "EOF" {
		return qual + name, true
	}
	if strings.HasPrefix(name, "Err") && len(name) > 3 && unicode.IsUpper(rune(name[3])) {
		return qual + name, true
	}
	return "", false
}
