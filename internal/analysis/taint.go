package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// This file is a forward taint engine over the CFG: a fixpoint (Forward)
// tracking which variables (types.Objects) may hold values derived from
// a source, reporting every sink call that receives one. It is
// parameterized by TaintSpec, so one engine serves any
// source/sink/sanitizer vocabulary (rawdataflow instantiates it with raw
// microdata sources and wire/journal/log sinks).
//
// Precision choices, deliberately conservative in the leak direction:
//
//   - assignments to a variable strongly update it; assignments through
//     a selector or index (s.f = x, m[k] = x) weakly taint the root;
//   - call results propagate taint from any tainted argument or method
//     receiver, unless the call is a Sanitizer or every result is a
//     non-Carrier type (scalars cannot transport microdata);
//   - function literals are walked flow-insensitively in the state at
//     their creation point: sinks inside closures are checked, taint
//     assigned inside them escapes to the enclosing state.

// TaintSpec parameterizes one taint analysis.
type TaintSpec struct {
	// Source reports whether the expression is inherently tainted
	// (independent of dataflow), e.g. any expression whose type is a raw
	// microdata type, or a call to a raw-data constructor.
	Source func(ast.Expr) bool
	// Sink inspects a call; when it is a sink it returns the indices of
	// the arguments that must be clean and a short description.
	Sink func(*ast.CallExpr) (args []int, desc string, ok bool)
	// Sanitizer reports calls whose results are clean regardless of
	// their arguments (sanctioned release paths). Optional.
	Sanitizer func(*ast.CallExpr) bool
	// Carrier reports whether a type can transport tainted data. When
	// nil every type carries. Types reported false (typically scalars)
	// terminate propagation: an aggregate statistic computed FROM raw
	// data is a release the mechanism sanctions, the rows are not.
	Carrier func(types.Type) bool
}

// TaintFinding is one sink call observed with a tainted argument.
type TaintFinding struct {
	Call *ast.CallExpr
	Arg  ast.Expr
	Desc string
}

// taintState is the per-program-point fact: the set of possibly-tainted
// objects.
type taintState map[types.Object]bool

type taintEngine struct {
	info     *types.Info
	spec     TaintSpec
	findings []TaintFinding
	reported map[token.Pos]bool
}

// RunTaint runs the spec to fixpoint over one function's CFG and returns
// the sink violations. info may be partial; unresolved expressions are
// treated as clean (a missing type is indistinguishable from a scalar),
// which keeps fixture stubs and degraded type-checking quiet rather than
// noisy.
func RunTaint(info *types.Info, g *CFG, spec TaintSpec) []TaintFinding {
	e := &taintEngine{info: info, spec: spec, reported: map[token.Pos]bool{}}
	flow := func(blk *Block, st taintState) taintState {
		out := maps.Clone(st)
		for _, n := range blk.Nodes {
			e.transfer(n, out)
		}
		return out
	}
	in, reached := Forward(g, taintState{}, flow, joinKeys[taintState])
	// Re-run the transfer once per block at fixpoint to emit findings
	// with final states (findings are deduped by call position).
	e.findings = nil
	e.reported = map[token.Pos]bool{}
	for _, blk := range g.Blocks {
		if reached[blk.Index] {
			flow(blk, in[blk.Index])
		}
	}
	// Defers run at exit: check their calls in the exit state's
	// over-approximation (union of all states) — a tainted value handed
	// to a deferred sink still leaks.
	if len(g.Defers) > 0 {
		union := taintState{}
		for _, st := range in {
			for k := range st {
				union[k] = true
			}
		}
		for _, d := range g.Defers {
			e.scanExpr(d.Call, union)
		}
	}
	return e.findings
}

// transfer applies one node's effect to st, checking sinks on the way.
func (e *taintEngine) transfer(n ast.Node, st taintState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			e.scanExpr(rhs, st)
		}
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			t := e.tainted(n.Rhs[0], st)
			for _, lhs := range n.Lhs {
				e.assign(lhs, t, st)
			}
			return
		}
		for i, lhs := range n.Lhs {
			if i < len(n.Rhs) {
				e.assign(lhs, e.tainted(n.Rhs[i], st), st)
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				e.scanExpr(v, st)
			}
			for i, name := range vs.Names {
				t := false
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					t = e.tainted(vs.Values[0], st)
				} else if i < len(vs.Values) {
					t = e.tainted(vs.Values[i], st)
				}
				e.assign(name, t, st)
			}
		}
	case *ast.RangeStmt:
		e.scanExpr(n.X, st)
		if e.tainted(n.X, st) {
			if n.Value != nil {
				// Element extraction moves the data itself, not a derived
				// aggregate: the bound variable is tainted even when its
				// type is scalar — each element of a raw bit-vector is
				// microdata, matching how xs[i] propagates.
				e.taintLHS(n.Value, st)
			}
			// Keys of maps can carry data; slice/array indices cannot.
			if n.Key != nil && e.info != nil {
				if tv, ok := e.info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						e.taintLHS(n.Key, st)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// Checked at exit in RunTaint; scanning here too catches taint
		// present at creation.
		e.scanExpr(n.Call, st)
	case *ast.GoStmt:
		e.scanExpr(n.Call, st)
	case *ast.ExprStmt:
		e.scanExpr(n.X, st)
	case *ast.SendStmt:
		e.scanExpr(n.Chan, st)
		e.scanExpr(n.Value, st)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			e.scanExpr(r, st)
		}
	case *ast.IncDecStmt:
		e.scanExpr(n.X, st)
	case ast.Expr:
		// Branch conditions, switch tags, case expressions.
		e.scanExpr(n, st)
	case ast.Stmt:
		// Type-switch assign clauses and other residual statements: scan
		// any contained expressions for sinks without state updates.
		ast.Inspect(n, func(x ast.Node) bool {
			if expr, ok := x.(ast.Expr); ok {
				e.scanExpr(expr, st)
				return false
			}
			return true
		})
	}
}

// assign updates st for `lhs = (tainted?)`.
func (e *taintEngine) assign(lhs ast.Expr, tainted bool, st taintState) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := e.objOf(lhs)
		if obj == nil {
			return
		}
		// A variable whose type cannot carry the data stays clean even
		// when the RHS is tainted: `n, err := f(rows)` taints neither the
		// count nor the error.
		if tainted && e.spec.Carrier != nil && obj.Type() != nil && !e.spec.Carrier(obj.Type()) {
			tainted = false
		}
		if tainted {
			st[obj] = true
		} else {
			delete(st, obj) // strong update: the variable now holds a clean value
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// Writing into a structure: weakly taint the root object (other
		// fields/elements may retain older taint, so never kill).
		if tainted {
			if obj := e.rootObj(lhs); obj != nil {
				st[obj] = true
			}
		}
	}
}

// taintLHS marks lhs tainted unconditionally, with no Carrier filter —
// reserved for bindings that hold the source data itself (range
// elements) rather than something computed from it.
func (e *taintEngine) taintLHS(lhs ast.Expr, st taintState) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if obj := e.objOf(lhs); obj != nil {
			st[obj] = true
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if obj := e.rootObj(lhs); obj != nil {
			st[obj] = true
		}
	}
}

// rootObj digs to the base identifier of a selector/index/star chain.
func (e *taintEngine) rootObj(x ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(x).(type) {
		case *ast.Ident:
			return e.objOf(v)
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		default:
			return nil
		}
	}
}

func (e *taintEngine) objOf(id *ast.Ident) types.Object {
	if e.info == nil {
		return nil
	}
	if obj := e.info.Uses[id]; obj != nil {
		return obj
	}
	return e.info.Defs[id]
}

// scanExpr walks an expression checking every call against the sink set
// (with the current state) and descending into function literals.
func (e *taintEngine) scanExpr(x ast.Expr, st taintState) {
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			e.checkSink(n, st)
		case *ast.FuncLit:
			// Flow-insensitive walk of the closure body in the creation
			// state: transfers apply (assignments inside may taint
			// captured variables) and sinks are checked.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return true // nested literals: keep descending
				case ast.Stmt:
					e.transfer(m, st)
				case *ast.CallExpr:
					e.checkSink(m, st)
				}
				return true
			})
			return false
		}
		return true
	})
}

// checkSink reports the call if it is a sink receiving a tainted arg.
func (e *taintEngine) checkSink(call *ast.CallExpr, st taintState) {
	args, desc, ok := e.spec.Sink(call)
	if !ok || e.reported[call.Lparen] {
		return
	}
	for _, i := range args {
		if i < len(call.Args) && e.tainted(call.Args[i], st) {
			e.reported[call.Lparen] = true
			e.findings = append(e.findings, TaintFinding{Call: call, Arg: call.Args[i], Desc: desc})
			return
		}
	}
	if len(args) == 0 { // sink over all arguments
		for _, a := range call.Args {
			if e.tainted(a, st) {
				e.reported[call.Lparen] = true
				e.findings = append(e.findings, TaintFinding{Call: call, Arg: a, Desc: desc})
				return
			}
		}
	}
}

// tainted evaluates whether x may hold source-derived data in state st.
func (e *taintEngine) tainted(x ast.Expr, st taintState) bool {
	if x == nil {
		return false
	}
	if e.spec.Source != nil && e.spec.Source(x) {
		return true
	}
	switch x := x.(type) {
	case *ast.Ident:
		obj := e.objOf(x)
		return obj != nil && st[obj]
	case *ast.ParenExpr:
		return e.tainted(x.X, st)
	case *ast.StarExpr:
		return e.tainted(x.X, st)
	case *ast.UnaryExpr:
		return e.tainted(x.X, st)
	case *ast.TypeAssertExpr:
		return e.tainted(x.X, st)
	case *ast.IndexExpr:
		return e.tainted(x.X, st)
	case *ast.SliceExpr:
		return e.tainted(x.X, st)
	case *ast.SelectorExpr:
		// A package-qualified name is never tainted by its qualifier.
		if id, ok := x.X.(*ast.Ident); ok && e.info != nil {
			if _, isPkg := e.info.Uses[id].(*types.PkgName); isPkg {
				return false
			}
		}
		return e.tainted(x.X, st) && e.carries(x)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if e.tainted(el, st) {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return (e.tainted(x.X, st) || e.tainted(x.Y, st)) && e.carries(x)
	case *ast.CallExpr:
		if e.spec.Sanitizer != nil && e.spec.Sanitizer(x) {
			return false
		}
		if !e.carries(x) {
			return false
		}
		for _, a := range x.Args {
			if e.tainted(a, st) {
				return true
			}
		}
		// Method value on a tainted receiver: d.Clone(), d.Key(idx)…
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			return e.tainted(sel, st)
		}
		return false
	}
	return false
}

// carries applies the Carrier predicate to x's resolved type; untyped or
// unresolved expressions conservatively carry.
func (e *taintEngine) carries(x ast.Expr) bool {
	if e.spec.Carrier == nil || e.info == nil {
		return true
	}
	tv, ok := e.info.Types[x]
	if !ok || tv.Type == nil {
		return true
	}
	return e.spec.Carrier(tv.Type)
}

// ScalarCarrier is the standard Carrier: booleans, numbers, and error
// values cannot transport microdata rows — aggregate statistics and
// diagnostics are exactly the releases the mechanism sanctions.
// Everything else (strings, slices, maps, structs, non-error
// interfaces, pointers, channels, functions) can.
func ScalarCarrier(t types.Type) bool {
	if types.Identical(t, types.Universe.Lookup("error").Type()) {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return true
	}
	return basic.Info()&(types.IsBoolean|types.IsNumeric) == 0
}
