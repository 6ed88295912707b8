package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WALOrder enforces write-ahead in the strict sense on the privacy-loss
// ledger: in any function that both appends to the WAL and applies an
// entry to the in-memory ledger state (l.entries / l.totals), every
// path to the apply must have completed a successful WAL append first.
// Reversing the order (or applying after a failed append) creates the
// one state the durability design forbids — budget moved in memory that
// a restart cannot replay, i.e. spent epsilon that silently un-spends.
//
// Per-path states over the CFG:
//
//   - unlogged: no WAL append on this path yet — an apply here is the
//     ordering violation;
//   - pending: an append whose error result has not been branched on —
//     an apply here may follow a failed disk write;
//   - failed: the append's error edge (`err != nil` true) — an apply
//     here definitely follows a failed write;
//   - logged: the append's success edge — applies are sanctioned;
//   - exempt: the wal is nil on this path (`l.wal != nil` false edge) —
//     an in-memory-only ledger has nothing to order against.
//
// An append whose error is discarded outright (ExprStmt or assigned to
// _) is reported at the call. Functions touching memory without any
// append in sight (newLedger resuming already-durable entries) are out
// of scope by construction.
var WALOrder = &Analyzer{
	Name:       "walorder",
	NeedsTypes: true,
	Wants:      wantsWALCode,
	Run:        runWALOrder,
}

func wantsWALCode(pkg *Package) bool {
	return pkg.Path == "singlingout/internal/query/remote" ||
		strings.HasPrefix(pkg.Path, "walorder")
}

// Path-state bits for the walorder analysis.
const (
	woUnlogged = 1 << iota
	woPending
	woFailed
	woLogged
	woExempt
)

func runWALOrder(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, fb := range FuncBodies(f.AST) {
			checkWALOrder(pass, fb)
		}
	}
	return nil
}

func checkWALOrder(pass *Pass, fb FuncBody) {
	hasAppend, hasApply := false, false
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWALAppend(pass, n) {
				hasAppend = true
			}
		case *ast.AssignStmt:
			if applyTarget(n) != "" {
				hasApply = true
			}
		}
		return true
	})
	if !hasAppend || !hasApply {
		return // nothing to order: memory-only (seed) or log-only functions
	}

	errObjs := collectAppendErrs(pass, fb.Body)
	g := NewCFG(fb.Body)
	in, reached := Forward(g, woUnlogged,
		func(blk *Block, state uint8) uint8 { return woTransferBlock(pass, blk, state, nil) },
		func(state uint8, e Edge) uint8 { return woRefine(pass, state, e, errObjs) },
		joinBits)
	for _, blk := range g.Blocks {
		if !reached[blk.Index] {
			continue
		}
		woTransferBlock(pass, blk, in[blk.Index], func(n ast.Node, state uint8, target string) {
			switch {
			case state&woUnlogged != 0:
				pass.Reportf(n.Pos(),
					"in-memory ledger apply to %s in %s is not preceded by a WAL append on every path: write-ahead means log first, apply second",
					target, fb.Name)
			case state&woFailed != 0:
				pass.Reportf(n.Pos(),
					"in-memory ledger apply to %s in %s is reachable from the WAL append's error branch: a failed disk write must leave the ledger unmoved",
					target, fb.Name)
			case state&woPending != 0:
				pass.Reportf(n.Pos(),
					"in-memory ledger apply to %s in %s before the WAL append's error is checked: the write may have failed",
					target, fb.Name)
			}
		})
	}
}

// woTransferBlock folds the block's nodes over the path-state set;
// report, when non-nil, receives each apply with the state in force.
func woTransferBlock(pass *Pass, blk *Block, state uint8, report func(ast.Node, uint8, string)) uint8 {
	for _, n := range blk.Nodes {
		// An apply is checked against the state BEFORE this node's calls
		// only if it precedes them textually; within one statement the
		// RHS (append call) evaluates before the assignment completes, so
		// process calls first for assignments whose RHS contains the
		// append, then the apply.
		appendErrDiscarded := false
		InspectHead(n, func(c ast.Node) bool {
			if _, ok := c.(*ast.FuncLit); ok {
				return false
			}
			call, ok := c.(*ast.CallExpr)
			if !ok || !isWALAppend(pass, call) {
				return true
			}
			if discardsError(n, call) {
				appendErrDiscarded = true
			}
			state = woPending
			return true
		})
		if appendErrDiscarded {
			if report != nil {
				// Find the call again for a precise position.
				ast.Inspect(n, func(c ast.Node) bool {
					if call, ok := c.(*ast.CallExpr); ok && isWALAppend(pass, call) {
						pass.Reportf(call.Pos(),
							"WAL append error discarded: a failed write-ahead append must fail the budget movement, not vanish")
						return false
					}
					return true
				})
			}
			state = woLogged // avoid cascading reports at later applies
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			if target := applyTarget(as); target != "" && report != nil {
				report(as, state, target)
			}
		}
	}
	return state
}

// woRefine narrows the state along condition edges: the append error
// check splits pending into logged/failed, and a wal nil check exempts
// the nil arm.
func woRefine(pass *Pass, state uint8, e Edge, errObjs map[types.Object]bool) uint8 {
	if e.Cond == nil {
		return state
	}
	cond, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (cond.Op != token.EQL && cond.Op != token.NEQ) {
		return state
	}
	x, isNil := nilCompare(cond)
	if !isNil {
		return state
	}
	// `err != nil` on a recorded append error: true edge → failed,
	// false edge → logged.
	if id, ok := ast.Unparen(x).(*ast.Ident); ok && state&woPending != 0 {
		if obj := objOfIdent(pass, id); obj != nil && errObjs[obj] {
			isNilEdge := (cond.Op == token.EQL) != e.Neg
			if isNilEdge {
				return state&^woPending | woLogged
			}
			return state&^woPending | woFailed
		}
	}
	// `l.wal != nil`: the nil edge runs memory-only, exempt from ordering.
	if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok && sel.Sel.Name == "wal" {
		isNilEdge := (cond.Op == token.EQL) != e.Neg
		if isNilEdge && state&woUnlogged != 0 {
			return state&^woUnlogged | woExempt
		}
	}
	return state
}

// nilCompare returns the non-nil operand of a comparison against nil.
func nilCompare(cond *ast.BinaryExpr) (ast.Expr, bool) {
	if id, ok := ast.Unparen(cond.Y).(*ast.Ident); ok && id.Name == "nil" {
		return cond.X, true
	}
	if id, ok := ast.Unparen(cond.X).(*ast.Ident); ok && id.Name == "nil" {
		return cond.Y, true
	}
	return nil, false
}

// isWALAppend recognizes the WAL append call: method append on a
// wal-typed receiver (typed), or a selector ending `.wal.append` /
// receiver named wal (syntactic fallback for fixtures).
func isWALAppend(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "append" {
		return false
	}
	if fn := pass.CalleeFunc(call); fn != nil {
		return RecvNamed(fn) == "wal"
	}
	if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		return inner.Sel.Name == "wal"
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name == "wal"
	}
	return false
}

// applyTarget reports whether an assignment mutates the in-memory
// ledger state, returning the field name ("entries" or "totals").
func applyTarget(as *ast.AssignStmt) string {
	for _, lhs := range as.Lhs {
		x := lhs
		if ix, ok := x.(*ast.IndexExpr); ok {
			x = ix.X
		}
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "entries" || sel.Sel.Name == "totals" {
				return sel.Sel.Name
			}
		}
	}
	return ""
}

// collectAppendErrs records the error-result objects of WAL append
// assignments (`if err := l.wal.append(e); ...`, `err = w.append(e)`).
func collectAppendErrs(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	objs := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isWALAppend(pass, call) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := objOfIdent(pass, id); obj != nil {
				objs[obj] = true
			}
		}
		return true
	})
	return objs
}

// discardsError reports whether the append call's error result is
// thrown away where it appears: a bare ExprStmt, or assignment to _.
func discardsError(context ast.Node, call *ast.CallExpr) bool {
	switch n := context.(type) {
	case *ast.ExprStmt:
		return n.X == call
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 && n.Rhs[0] == call && len(n.Lhs) == 1 {
			id, ok := n.Lhs[0].(*ast.Ident)
			return ok && id.Name == "_"
		}
	}
	return false
}
