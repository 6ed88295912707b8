package analysis

import (
	"go/ast"
	"go/token"
)

// This file is a lightweight intra-procedural control-flow graph over
// go/ast, built for the dataflow analyzers (taint.go, which rawdataflow
// runs, and lockdiscipline). It models exactly what those passes need:
//
//   - basic blocks of simple statements and the condition expressions
//     that guard branches;
//   - return edges into a synthetic Exit block, and the function's defer
//     statements collected on the side (defers run at every exit).
//
// Not modeled: goto (absent from this repository; a goto conservatively
// jumps to Exit), and panic/recover edges. Function literals are NOT
// inlined — the literal appears as a node in the block where it is
// created, and each engine decides how to treat its body.
//
// Forward is the one fixpoint solver both passes share; each supplies
// its lattice as an entry state, a block flow and a join (joinKeys).

// CFG is one function body's control-flow graph. Blocks[0] is the entry.
type CFG struct {
	Entry  *Block
	Exit   *Block // synthetic; every return and the final fallthrough land here
	Blocks []*Block
	Defers []*ast.DeferStmt
}

// Block is a straight-line run of AST nodes. Nodes hold simple
// statements plus the guard expressions of any branch that terminates
// the block (an if/for/switch condition is *in* the block that evaluates
// it, so expression-level effects like function calls are visible).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// NewCFG builds the CFG of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: map[string]*labelTarget{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmt(body)
	b.jump(b.g.Exit)
	return b.g
}

// Forward solves a forward may-analysis over g to its least fixpoint
// and returns each block's entry state and whether any path reaches
// the block. entry is the state on entry to g.Entry; flow maps a
// block's entry state to its exit state and must not modify its
// argument; join merges a state into a successor's entry state (the
// zero S when the successor was not yet reached) and reports whether it
// grew.
// A block is (re)visited when first reached and whenever its entry
// state grows, so with a monotone flow and a union join every path's
// facts reach every block they can.
func Forward[S any](g *CFG, entry S, flow func(*Block, S) S, join func(S, S) (S, bool)) (in []S, reached []bool) {
	in = make([]S, len(g.Blocks))
	reached = make([]bool, len(g.Blocks))
	in[g.Entry.Index], reached[g.Entry.Index] = entry, true
	work := []*Block{g.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		out := flow(blk, in[blk.Index])
		for _, to := range blk.Succs {
			var grew bool
			in[to.Index], grew = join(in[to.Index], out)
			if grew || !reached[to.Index] {
				reached[to.Index] = true
				work = append(work, to)
			}
		}
	}
	return in, reached
}

// joinKeys is the key-union join of map-valued sets (lockdiscipline,
// the taint engine). It copies into dst, allocating it on first reach,
// so a state flowing along several edges is never shared.
func joinKeys[M ~map[K]V, K comparable, V any](dst, src M) (M, bool) {
	if dst == nil {
		dst = make(M, len(src))
	}
	grew := false
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
			grew = true
		}
	}
	return dst, grew
}

type labelTarget struct {
	brk, cont *Block
}

type cfgBuilder struct {
	g   *CFG
	cur *Block

	breaks    []*Block // innermost-last break targets (loops, switch, select)
	continues []*Block // innermost-last continue targets (loops)

	labels       map[string]*labelTarget
	pendingLabel string // label naming the next loop/switch/select
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// edge adds from→to.
func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an unconditional transfer and leaves
// the builder in a fresh (possibly unreachable) block.
func (b *cfgBuilder) jump(to *Block) {
	b.edge(b.cur, to)
	b.cur = b.newBlock()
}

// takeLabel consumes the pending label for the statement that owns it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	if cont != nil {
		b.continues = append(b.continues, cont)
	}
	if label != "" {
		b.labels[label] = &labelTarget{brk: brk, cont: cont}
	}
}

func (b *cfgBuilder) popLoop(hasCont bool) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	if hasCont {
		b.continues = b.continues[:len(b.continues)-1]
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock()
		after := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, body)
			b.edge(head, after)
		} else {
			b.edge(head, body)
		}
		b.pushLoop(label, after, cont)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, cont)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(post, head)
		}
		b.popLoop(true)
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s) // the whole range clause: X evaluation + Key/Value binding
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(label, after, head)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.popLoop(true)
		b.cur = after
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body, func(cc *ast.CaseClause) ([]ast.Stmt, []ast.Expr, bool) {
			return cc.Body, cc.List, cc.List == nil
		})
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body, func(cc *ast.CaseClause) ([]ast.Stmt, []ast.Expr, bool) {
			return cc.Body, nil, cc.List == nil
		})
	case *ast.SelectStmt:
		label := b.takeLabel()
		entry := b.cur
		after := b.newBlock()
		b.pushLoop(label, after, nil)
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(entry, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			for _, st := range comm.Body {
				b.stmt(st)
			}
			b.edge(b.cur, after)
		}
		b.popLoop(false)
		b.cur = after
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s, false); t != nil {
				b.jump(t)
			}
		case token.CONTINUE:
			if t := b.branchTarget(s, true); t != nil {
				b.jump(t)
			}
		case token.GOTO:
			b.jump(b.g.Exit) // conservative: no goto in this repository
		case token.FALLTHROUGH:
			// handled structurally by caseClauses
		}
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)
	default:
		// ExprStmt, AssignStmt, DeclStmt, SendStmt, IncDecStmt, GoStmt,
		// EmptyStmt: straight-line.
		b.add(s)
	}
}

// branchTarget resolves a break/continue to its block.
func (b *cfgBuilder) branchTarget(s *ast.BranchStmt, cont bool) *Block {
	if s.Label != nil {
		if t := b.labels[s.Label.Name]; t != nil {
			if cont {
				return t.cont
			}
			return t.brk
		}
		return b.g.Exit // unknown label: conservative
	}
	if cont {
		if len(b.continues) == 0 {
			return b.g.Exit
		}
		return b.continues[len(b.continues)-1]
	}
	if len(b.breaks) == 0 {
		return b.g.Exit
	}
	return b.breaks[len(b.breaks)-1]
}

// caseClauses builds the shared switch/type-switch shape: the entry
// block branches to every case body, fallthrough chains to the next
// body, and a missing default adds an entry→after edge.
func (b *cfgBuilder) caseClauses(label string, body *ast.BlockStmt, split func(*ast.CaseClause) ([]ast.Stmt, []ast.Expr, bool)) {
	entry := b.cur
	after := b.newBlock()
	b.pushLoop(label, after, nil)
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(entry, blocks[i])
		if _, _, isDefault := split(cc); isDefault {
			hasDefault = true
		}
	}
	for i, cc := range clauses {
		stmts, exprs, _ := split(cc)
		b.cur = blocks[i]
		for _, e := range exprs {
			b.add(e)
		}
		falls := false
		for _, st := range stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = true
				continue
			}
			b.stmt(st)
		}
		if falls && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	if !hasDefault {
		b.edge(entry, after)
	}
	b.popLoop(false)
	b.cur = after
}

// InspectHead visits the expressions a block node evaluates itself,
// without re-descending into nested statements that the CFG places in
// their own blocks: a RangeStmt appears whole in its head block, but
// only Key/Value/X belong to the head — the body's statements are
// visited via their own blocks. Every other node type is fully
// contained in its block and is walked as-is.
func InspectHead(n ast.Node, fn func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
			if e != nil {
				ast.Inspect(e, fn)
			}
		}
		return
	}
	ast.Inspect(n, fn)
}

// FuncBodies yields every function declaration in file f that has a
// body, named for diagnostics.
func FuncBodies(f *ast.File) []FuncBody {
	var out []FuncBody
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, FuncBody{Name: fd.Name.Name, Body: fd.Body})
		}
	}
	return out
}

// FuncBody is one analyzable body.
type FuncBody struct {
	Name string
	Body *ast.BlockStmt
}
