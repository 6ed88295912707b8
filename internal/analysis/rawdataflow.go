package analysis

import (
	"go/ast"
	"strings"
)

// RawDataFlow enforces the paper's core boundary: raw microdata never
// crosses the statistics interface. "Linear Program Reconstruction in
// Practice" needed exactly one accidental leak path in a production
// query system; this analyzer makes that class of bug a compile-time
// failure in the serving stack (internal/query/remote, internal/obs, and
// every cmd/ binary).
//
// Sources (tainted values):
//   - any expression whose type is (or transports, through
//     slices/maps/pointers) dataset.Dataset, dataset.Record, or
//     census.Tuple — the row-level microdata types;
//   - calls to remote.Dataset or synth.BinaryDataset, the raw bit-vector
//     constructors ([]int64 is too anonymous to match by type alone).
//
// Sinks (egress): encoding/json Marshal/Encode, fmt Print/Fprint
// families, log, encoding/csv writers, io Write/WriteString methods, the
// obs journal (Journal.Emit) and the remote wire helper writeJSON.
//
// Sanctioned paths: scalar results (counts, rates, accuracies) never
// carry taint — releasing statistics is the system's whole job; the
// dispute is rows. Calls into internal/kanon and internal/dp are
// sanitizers: their outputs went through an anonymization mechanism.
// The one sanctioned raw egress contract is regeneration — the server
// advertises (seed, n, p) and both ends call remote.Dataset locally —
// which needs no exemption here because a seed is a scalar. Anything
// else (e.g. cmd/anonymize's deliberate CSV export) documents itself
// with a lint:ignore and a reason.
var RawDataFlow = &Analyzer{
	Name:       "rawdataflow",
	NeedsTypes: true,
	Wants:      wantsServingStack,
	Run:        runRawDataFlow,
}

// wantsServingStack scopes the analyzer to where the wire boundary
// lives: the query service, the telemetry layer and every binary.
func wantsServingStack(pkg *Package) bool {
	return pkg.Path == "singlingout/internal/query/remote" ||
		pkg.Path == "singlingout/internal/obs" ||
		strings.HasPrefix(pkg.Path, "singlingout/internal/obs/") ||
		strings.HasPrefix(pkg.Path, "singlingout/cmd/")
}

// rawTypes lists the microdata types per declaring package path.
var rawTypes = map[string]map[string]bool{
	"singlingout/internal/dataset": {"Dataset": true, "Record": true},
	"singlingout/internal/census":  {"Tuple": true},
}

// rawConstructors lists (package path, function name) pairs whose
// results are raw microdata regardless of type.
var rawConstructors = map[[2]string]bool{
	{"singlingout/internal/query/remote", "Dataset"}: true,
	{"singlingout/internal/synth", "BinaryDataset"}:  true,
}

func runRawDataFlow(pass *Pass) error {
	if pass.TypesInfo == nil {
		return nil
	}
	spec := TaintSpec{
		Source:    func(x ast.Expr) bool { return rawSource(pass, x) },
		Sink:      func(call *ast.CallExpr) ([]int, string, bool) { return egressSink(pass, call) },
		Sanitizer: func(call *ast.CallExpr) bool { return anonymizerCall(pass, call) },
		Carrier:   ScalarCarrier,
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, fb := range FuncBodies(f.AST) {
			g := NewCFG(fb.Body)
			for _, finding := range RunTaint(pass.TypesInfo, g, spec) {
				pass.Reportf(finding.Call.Pos(),
					"raw microdata reaches %s in %s: rows must never cross the wire/journal/log boundary — release statistics, or regenerate via the (seed,n,p) contract",
					finding.Desc, fb.Name)
			}
		}
	}
	return nil
}

// rawSource reports expressions that are microdata by type or by
// constructor.
func rawSource(pass *Pass, x ast.Expr) bool {
	if call, ok := x.(*ast.CallExpr); ok {
		if fn := pass.CalleeFunc(call); fn != nil {
			if rawConstructors[[2]string{FuncPkgPath(fn), fn.Name()}] {
				return true
			}
		}
	}
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	// Conversions and type expressions are not values of the type.
	if tv.IsType() {
		return false
	}
	for pkgPath, names := range rawTypes {
		if ElemNamedFrom(tv.Type, pkgPath, names) {
			return true
		}
	}
	return false
}

// egressSink classifies wire/journal/log egress calls. It returns the
// argument indices that must be clean (empty = all arguments).
func egressSink(pass *Pass, call *ast.CallExpr) ([]int, string, bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil {
		return nil, "", false
	}
	pkg, name := FuncPkgPath(fn), fn.Name()
	recv := RecvNamed(fn)
	switch {
	case pkg == "encoding/json" && (name == "Marshal" || name == "MarshalIndent"):
		return []int{0}, "json." + name, true
	case pkg == "encoding/json" && recv == "Encoder" && name == "Encode":
		return []int{0}, "json.Encoder.Encode", true
	case pkg == "fmt" && strings.HasPrefix(name, "Fprint"):
		return nil, "fmt." + name, true // all args incl. the writer's payload
	case pkg == "fmt" && strings.HasPrefix(name, "Print"):
		return nil, "fmt." + name, true
	case pkg == "log":
		return nil, "log." + name, true
	case pkg == "encoding/csv" && recv == "Writer" && (name == "Write" || name == "WriteAll"):
		return []int{0}, "csv.Writer." + name, true
	case recv == "Journal" && name == "Emit" && strings.HasSuffix(pkg, "internal/obs"):
		return []int{0}, "Journal.Emit", true
	case name == "writeJSON" && len(call.Args) >= 3:
		return []int{2}, "writeJSON", true
	case (name == "Write" || name == "WriteString") && recv != "" && len(call.Args) == 1:
		// io.Writer-shaped methods: the payload must be clean.
		return []int{0}, recv + "." + name, true
	}
	return nil, "", false
}

// anonymizerCall reports calls into the anonymization mechanisms, whose
// outputs are sanctioned releases even when row-shaped.
func anonymizerCall(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.CalleeFunc(call)
	if fn == nil {
		return false
	}
	pkg := FuncPkgPath(fn)
	return strings.HasSuffix(pkg, "internal/kanon") || strings.HasSuffix(pkg, "internal/dp")
}
