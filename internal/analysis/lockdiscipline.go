package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// LockDiscipline keeps critical sections non-blocking. The query
// server's cache shards and its ledger, and the obs registry, journal
// and tracer, each guard their state with a mutex, and the code holding
// one must not acquire another lock, perform network I/O, or block on a
// channel — any of those turns the lock into a convoy (or a deadlock)
// under load, which shows up as tail latency in exactly the
// admission-control measurements the loadgen gates on.
//
// The analysis is an intra-procedural lock-set dataflow: sync.Mutex /
// sync.RWMutex Lock/RLock calls add the receiver to the held set,
// Unlock/RUnlock remove it (a deferred Unlock holds to function exit,
// which is the sanctioned pattern), and while the set is non-empty the
// analyzer flags:
//
//   - acquiring any further mutex (a second lock, or a self-deadlock
//     on the same one);
//   - channel sends, receives, and select statements;
//   - known blockers: time.Sleep, sync.WaitGroup.Wait, sync.Cond.Wait;
//   - network I/O (any call into net or net/http).
//
// File I/O is not flagged: the ledger appends each entry to its WAL, a
// local file, inside its critical section, because write-ahead
// durability requires the disk write before the apply (the ordering
// FuzzLedgerModel in internal/query/remote checks under injected
// faults).
var LockDiscipline = &Analyzer{
	Name:       "lockdiscipline",
	NeedsTypes: true,
	Wants:      wantsLockedCode,
	Run:        runLockDiscipline,
}

// wantsLockedCode scopes the analyzer to the packages whose mutexes it
// guards: the query server and the obs registry, journal and tracer.
func wantsLockedCode(pkg *Package) bool {
	return pkg.Path == "singlingout/internal/query/remote" ||
		pkg.Path == "singlingout/internal/obs"
}

func runLockDiscipline(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, fb := range FuncBodies(f.AST) {
			checkLockDiscipline(pass, fb)
			// A literal's body runs when it is called, not where it is
			// created (ldTransferBlock skips it there), so check it as
			// its own critical section, entered with no lock held.
			ast.Inspect(fb.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkLockDiscipline(pass, FuncBody{Name: fb.Name + ".func", Body: lit.Body})
				}
				return true
			})
		}
	}
	return nil
}

// lockSet is the set of held mutexes, keyed by a stable rendering of the
// receiver chain (object identity of the base + selector path), mapped
// to a printable name for diagnostics.
type lockSet map[string]string

// selectComms classifies the comm statements (`case ch <- x:`,
// `case v := <-ch:`) of every select in one function: a select with a
// default clause never blocks, so its comm operations are exempt; a
// select without one blocks like a bare channel op.
type selectComms struct {
	comm     map[ast.Stmt]bool // any select's comm statement
	blocking map[ast.Stmt]bool // comm of a select WITHOUT default
}

func collectSelectComms(body *ast.BlockStmt) selectComms {
	sc := selectComms{comm: map[ast.Stmt]bool{}, blocking: map[ast.Stmt]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		for _, cl := range sel.Body.List {
			if comm := cl.(*ast.CommClause).Comm; comm != nil {
				sc.comm[comm] = true
				if !hasDefault {
					sc.blocking[comm] = true
				}
			}
		}
		return true
	})
	return sc
}

func checkLockDiscipline(pass *Pass, fb FuncBody) {
	g := NewCFG(fb.Body)
	sc := collectSelectComms(fb.Body)
	in, reached := Forward(g, lockSet{},
		func(blk *Block, held lockSet) lockSet { return ldTransferBlock(pass, blk, sc, maps.Clone(held), nil) },
		joinKeys[lockSet])
	for _, blk := range g.Blocks {
		if !reached[blk.Index] {
			continue
		}
		ldTransferBlock(pass, blk, sc, maps.Clone(in[blk.Index]), func(n ast.Node, held lockSet, what string) {
			pass.Reportf(n.Pos(), "%s while %s is held in %s: critical sections must not block",
				what, heldNames(held), fb.Name)
		})
	}
}

// ldTransferBlock folds the block over the lock set; report, when
// non-nil, receives each violation with the set in force there.
func ldTransferBlock(pass *Pass, blk *Block, sc selectComms, held lockSet, report func(ast.Node, lockSet, string)) lockSet {
	for _, n := range blk.Nodes {
		inDefer := false
		if _, ok := n.(*ast.DeferStmt); ok {
			inDefer = true
		}
		// Comm statements of a select with default never block; comms of
		// a default-less select block exactly like the bare operation.
		chanOpsExempt := false
		if stmt, ok := n.(ast.Stmt); ok && sc.comm[stmt] {
			if sc.blocking[stmt] {
				if len(held) > 0 && report != nil {
					report(n, held, "blocking select")
				}
			}
			chanOpsExempt = true
		}
		InspectHead(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.SendStmt:
				if !chanOpsExempt && len(held) > 0 && report != nil {
					report(c, held, "channel send")
				}
			case *ast.UnaryExpr:
				if c.Op == token.ARROW && !chanOpsExempt && len(held) > 0 && report != nil {
					report(c, held, "channel receive")
				}
			case *ast.FuncLit:
				return false // runs later, not under this critical section
			case *ast.CallExpr:
				key, name, op, ok := mutexOp(pass, c)
				if ok {
					switch op {
					case "Lock", "RLock":
						if len(held) > 0 && report != nil {
							report(c, held, "acquiring "+name)
						}
						held[key] = name
					case "Unlock", "RUnlock":
						if !inDefer {
							delete(held, key)
						}
						// Deferred unlocks run at exit: the lock stays held
						// for the rest of the body, which is the point.
					}
					return true
				}
				if len(held) > 0 && report != nil {
					if what, bad := blockingCall(pass, c); bad {
						report(c, held, what)
					}
				}
			}
			return true
		})
	}
	return held
}

// mutexOp recognizes Lock/RLock/Unlock/RUnlock calls on sync.Mutex /
// sync.RWMutex, returning a stable key and printable name for the
// receiver.
func mutexOp(pass *Pass, call *ast.CallExpr) (key, name, op string, ok bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil || FuncPkgPath(fn) != "sync" {
		return "", "", "", false
	}
	recv := RecvNamed(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	key, name = receiverKey(pass, sel.X)
	return key, name, fn.Name(), true
}

// receiverKey renders a selector chain (e.g. l.mu, s.caches[i].mu) into
// a stable key plus a human-readable name.
func receiverKey(pass *Pass, x ast.Expr) (key, name string) {
	var parts []string
	base := ""
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			parts = append([]string{e.Sel.Name}, parts...)
			x = e.X
			continue
		case *ast.IndexExpr:
			parts = append([]string{"[]"}, parts...)
			x = e.X
			continue
		case *ast.StarExpr:
			x = e.X
			continue
		case *ast.Ident:
			parts = append([]string{e.Name}, parts...)
			if obj := objOfIdent(pass, e); obj != nil {
				base = fmt.Sprintf("%p", obj)
			}
		}
		break
	}
	name = strings.Join(parts, ".")
	return base + "|" + name, name
}

// objOfIdent resolves an identifier to its types.Object, nil when the
// tolerant type-check left it unresolved.
func objOfIdent(pass *Pass, id *ast.Ident) types.Object {
	if pass.TypesInfo == nil {
		return nil
	}
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// blockingCall classifies calls that must not run under a lock.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil {
		return "", false
	}
	pkg, name, recv := FuncPkgPath(fn), fn.Name(), RecvNamed(fn)
	switch {
	case pkg == "time" && name == "Sleep":
		return "time.Sleep", true
	case pkg == "sync" && name == "Wait" && (recv == "WaitGroup" || recv == "Cond"):
		return "sync." + recv + ".Wait", true
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		if recv != "" {
			return pkg + "." + recv + "." + name, true
		}
		return pkg + "." + name, true
	}
	return "", false
}

// heldNames lists the held locks deterministically for the diagnostic.
func heldNames(held lockSet) string {
	var names []string
	for _, v := range held {
		names = append(names, v)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
