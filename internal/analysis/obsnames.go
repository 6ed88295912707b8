package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// obsNameRE is the lowercase dotted convention every metric name must
// follow: the Prometheus renderer in internal/obs/serve maps dots to
// underscores and assumes no further sanitization is needed, and the
// work-counter gate (internal/experiments/testdata/quick_counters.json)
// joins each row's counters by these names, so a stray uppercase or
// formatted name silently forks a metric family.
var obsNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)

// obsNameMethods are the registry constructors whose first argument is a
// metric name. Curve covers CurveSet.Curve: convergence-curve names flow
// into journal event ids and the /converge endpoint, so they follow the
// same convention. Tracer.Begin/NewLane are deliberately out of scope:
// trace lane titles are display strings and embed pool/worker ids by
// design.
var obsNameMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "Curve": true,
}

// ObsNames requires metric and journal names passed to obs to be either
// lowercase dotted string literals or Metric*-named constants (whose
// definitions it also checks), so names are grep-able and stable across
// the Prometheus endpoint, the JSONL journal, and the bench gate.
var ObsNames = &Analyzer{
	Name: "obsnames",
	Run:  runObsNames,
}

func runObsNames(pass *Pass) error {
	if pass.Pkg.Name == "obs" {
		// The registry implementation and its tests exercise arbitrary
		// names (sanitization round-trips, collision cases) on purpose.
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				checkObsCall(pass, v)
			case *ast.CompositeLit:
				checkEventLit(pass, v)
			case *ast.GenDecl:
				checkMetricConsts(pass, v)
			}
			return true
		})
	}
	return nil
}

// checkObsCall validates the name argument of reg.Counter(...)-shaped
// calls. The receiver is not type-resolved (the framework is syntactic),
// so any single-argument method named Counter/Gauge/Histogram/Curve is
// held to the convention — the obs constructors take exactly the name,
// which keeps same-named domain functions with more arguments out of
// scope; a residual false positive can be suppressed with lint:ignore.
func checkObsCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !obsNameMethods[sel.Sel.Name] || len(call.Args) != 1 {
		return
	}
	switch arg := call.Args[0].(type) {
	case *ast.BasicLit:
		if arg.Kind != token.STRING {
			return
		}
		if name, err := strconv.Unquote(arg.Value); err == nil && !obsNameRE.MatchString(name) {
			pass.Reportf(arg.Pos(), "obs %s name %q is not lowercase dotted ([a-z0-9_.])", sel.Sel.Name, name)
		}
	case *ast.Ident:
		if !strings.HasPrefix(arg.Name, "Metric") {
			pass.Reportf(arg.Pos(), "obs %s name must be a lowercase dotted string literal or a Metric* constant, not %s", sel.Sel.Name, arg.Name)
		}
	case *ast.SelectorExpr:
		if !strings.HasPrefix(arg.Sel.Name, "Metric") {
			pass.Reportf(arg.Pos(), "obs %s name must be a lowercase dotted string literal or a Metric* constant, not %s", sel.Sel.Name, exprString(arg))
		}
	default:
		pass.Reportf(call.Args[0].Pos(), "obs %s name must be a constant — a lowercase dotted string literal or a Metric* constant, not a computed expression", sel.Sel.Name)
	}
}

// checkEventLit validates the Phase field of obs.Event composite
// literals: phases become journal event keys and the /healthz run-phase
// gauge label.
func checkEventLit(pass *Pass, lit *ast.CompositeLit) {
	if !isEventType(lit.Type) {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Phase" {
			continue
		}
		if bl, ok := kv.Value.(*ast.BasicLit); ok && bl.Kind == token.STRING {
			if name, err := strconv.Unquote(bl.Value); err == nil && !obsNameRE.MatchString(name) {
				pass.Reportf(bl.Pos(), "obs.Event Phase %q is not lowercase dotted ([a-z0-9_.])", name)
			}
		}
	}
}

// checkMetricConsts validates the definitions of Metric*-named string
// constants, which checkObsCall accepts by name at use sites.
func checkMetricConsts(pass *Pass, decl *ast.GenDecl) {
	if decl.Tok != token.CONST {
		return
	}
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, id := range vs.Names {
			if !strings.HasPrefix(id.Name, "Metric") || i >= len(vs.Values) {
				continue
			}
			bl, ok := vs.Values[i].(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				pass.Reportf(vs.Values[i].Pos(), "metric constant %s must be a plain lowercase dotted string literal", id.Name)
				continue
			}
			if name, err := strconv.Unquote(bl.Value); err == nil && !obsNameRE.MatchString(name) {
				pass.Reportf(bl.Pos(), "metric constant %s value %q is not lowercase dotted ([a-z0-9_.])", id.Name, name)
			}
		}
	}
}

// isEventType matches the obs.Event (or dot-imported Event) literal type.
func isEventType(t ast.Expr) bool {
	switch v := t.(type) {
	case *ast.SelectorExpr:
		return v.Sel.Name == "Event"
	case *ast.Ident:
		return v.Name == "Event"
	}
	return false
}

// exprString renders a short selector chain for messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	}
	return "expression"
}
