package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BudgetFlow checks the all-or-nothing accounting contract of the query
// server: once a handler performs a ledger spend, every control-flow
// path must settle it — refund it, have it denied, or commit the batch —
// before reporting an error to the client. A path that spends and then
// fails without settling silently leaks budget: the analyst is charged
// for answers that were never released, and the privacy-loss ledger
// (the artifact auditors replay) drifts from the truth the server
// enforced.
//
// The analysis runs per function over the CFG with a path-state set
// lattice {clean, spent, settled}:
//
//   - a call to spend moves every path to spent; refund/deny move to
//     settled;
//   - condition edges refine the spend's results: along `err != nil` the
//     spend never happened (clean); along `!ok` the ledger denied it and
//     recorded the denial (settled);
//   - an error exit (a fail/failOverloaded call, or returning a non-nil
//     error) is reported iff EVERY path reaching it is in spent — a mixed
//     set means some path did not spend (e.g. the correlated `fresh > 0`
//     guards in handleQuery), which is the sanctioned shape.
//
// Reaching the function exit in spent via a non-error path is the
// successful commit and is fine.
var BudgetFlow = &Analyzer{
	Name:       "budgetflow",
	NeedsTypes: true,
	Wants:      wantsLedgerCallers,
	Run:        runBudgetFlow,
}

func wantsLedgerCallers(pkg *Package) bool {
	return pkg.Path == "singlingout/internal/query/remote" ||
		strings.HasPrefix(pkg.Path, "budgetflow")
}

// Path-state bits.
const (
	bfClean   = 1 << iota // no outstanding spend on this path
	bfSpent               // a spend was granted and not yet settled
	bfSettled             // the spend was refunded, denied, or failed cleanly
)

func runBudgetFlow(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, fb := range FuncBodies(f.AST) {
			checkBudgetFlow(pass, fb)
		}
	}
	return nil
}

// spendResults are the bool/error result objects of the spend calls in
// one function, used to interpret branch conditions.
type spendResults struct {
	ok, err map[types.Object]bool
}

func checkBudgetFlow(pass *Pass, fb FuncBody) {
	// Cheap prefilter: a function with no spend call has nothing to check.
	hasSpend := false
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ledgerOp(pass, call) == "spend" {
			hasSpend = true
		}
		return !hasSpend
	})
	if !hasSpend {
		return
	}

	res := collectSpendResults(pass, fb.Body)
	g := NewCFG(fb.Body)

	in, reached := Forward(g, bfClean,
		func(blk *Block, state uint8) uint8 { return bfTransferBlock(pass, blk, state, nil) },
		func(state uint8, e Edge) uint8 { return bfRefine(pass, state, e, res) },
		joinBits)

	// Report pass at fixpoint: walk each block again, flagging error
	// exits whose path-state set is exactly {spent}.
	for _, blk := range g.Blocks {
		if !reached[blk.Index] {
			continue
		}
		bfTransferBlock(pass, blk, in[blk.Index], func(n ast.Node, state uint8) {
			if state == bfSpent {
				pass.Reportf(n.Pos(),
					"error path in %s returns with an unsettled ledger spend: refund or deny before failing (all-or-nothing accounting)",
					fb.Name)
			}
		})
	}
}

// bfTransferBlock folds the block's nodes over the state set. When
// report is non-nil, it is invoked on each error-exit node with the
// state in force there.
func bfTransferBlock(pass *Pass, blk *Block, state uint8, report func(ast.Node, uint8)) uint8 {
	for _, n := range blk.Nodes {
		if report != nil && isErrorExit(pass, n) {
			report(n, state)
		}
		InspectHead(n, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch ledgerOp(pass, call) {
			case "spend":
				state = bfSpent
			case "refund", "deny":
				state = bfSettled
			}
			return true
		})
	}
	return state
}

// bfRefine narrows the state set along a condition edge using the
// recorded spend result objects.
func bfRefine(pass *Pass, state uint8, e Edge, res spendResults) uint8 {
	if e.Cond == nil || state&bfSpent == 0 {
		return state
	}
	switch cond := ast.Unparen(e.Cond).(type) {
	case *ast.BinaryExpr:
		// err != nil / err == nil on a spend's error result: the failing
		// side means the spend never took effect.
		if nilComparand(pass, cond, res.err) {
			errIsNil := (cond.Op == token.EQL) != e.Neg // (err == nil) true edge, or (err != nil) false edge
			if !errIsNil {
				return state&^bfSpent | bfClean
			}
		}
	case *ast.Ident:
		// `if ok { ... } else { denied }`
		if obj := objOfIdent(pass, cond); obj != nil && res.ok[obj] && e.Neg {
			return state&^bfSpent | bfSettled
		}
	case *ast.UnaryExpr:
		// `if !ok { denied }`
		if cond.Op == token.NOT {
			if id, isID := ast.Unparen(cond.X).(*ast.Ident); isID {
				if obj := objOfIdent(pass, id); obj != nil && res.ok[obj] && !e.Neg {
					return state&^bfSpent | bfSettled
				}
			}
		}
	}
	return state
}

// nilComparand reports whether cond compares an ident from objs against
// nil.
func nilComparand(pass *Pass, cond *ast.BinaryExpr, objs map[types.Object]bool) bool {
	if cond.Op != token.EQL && cond.Op != token.NEQ {
		return false
	}
	pick := func(a, b ast.Expr) bool {
		id, ok := ast.Unparen(a).(*ast.Ident)
		if !ok {
			return false
		}
		if nb, ok := ast.Unparen(b).(*ast.Ident); !ok || nb.Name != "nil" {
			return false
		}
		obj := objOfIdent(pass, id)
		return obj != nil && objs[obj]
	}
	return pick(cond.X, cond.Y) || pick(cond.Y, cond.X)
}

func objOfIdent(pass *Pass, id *ast.Ident) types.Object {
	if pass.TypesInfo == nil {
		return nil
	}
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// collectSpendResults finds every `a, ok, err := led.spend(...)`-shaped
// assignment and records which LHS objects are the bool and error
// results.
func collectSpendResults(pass *Pass, body *ast.BlockStmt) spendResults {
	res := spendResults{ok: map[types.Object]bool{}, err: map[types.Object]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || ledgerOp(pass, call) != "spend" {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := objOfIdent(pass, id)
			if obj == nil || obj.Type() == nil {
				continue
			}
			switch {
			case isBool(obj.Type()):
				res.ok[obj] = true
			case isErrorType(obj.Type()):
				res.err[obj] = true
			}
		}
		return true
	})
	return res
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// ledgerOp classifies a call as one of the ledger budget operations
// ("spend", "refund", "deny") by method name — typed when the callee
// resolves, syntactic otherwise (tolerant checking can leave fixture
// callees unresolved).
func ledgerOp(pass *Pass, call *ast.CallExpr) string {
	name := ""
	if fn := pass.CalleeFunc(call); fn != nil {
		if RecvNamed(fn) == "" {
			return "" // plain function: ledger ops are methods
		}
		name = fn.Name()
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name = sel.Sel.Name
	}
	switch name {
	case "spend", "refund", "deny":
		return name
	}
	return ""
}

// isErrorExit reports nodes that hand an error to the client: calls to
// fail/failOverloaded helpers, and return statements whose results
// include a non-nil error-typed expression.
func isErrorExit(pass *Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			if pass.TypesInfo != nil {
				if tv, ok := pass.TypesInfo.Types[r]; ok && tv.Type != nil && isErrorType(tv.Type) {
					return true
				}
			}
		}
		return false
	default:
		exit := false
		ast.Inspect(n, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if name == "fail" || name == "failOverloaded" {
				exit = true
			}
			return !exit
		})
		return exit
	}
}
