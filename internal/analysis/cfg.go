package analysis

import (
	"go/ast"
	"go/token"
	"maps"
)

// This file is the intra-function control-flow engine shared by the
// flow-sensitive analyzers (bufown, lockdisc): the graph construction
// and one forward worklist (flow) over it. The AST-walk and summary rules
// cannot express "released on this path but used on that one"; the CFG
// makes path-aware facts expressible as a standard forward dataflow
// over basic blocks.
//
// The graph is deliberately small-calibre: blocks hold ast.Node slices
// (statements, plus condition expressions evaluated at branch points) in
// source order, and edges optionally carry the branch condition with the
// outcome that selects them, so clients can refine state along the true
// and false edges of `if err != nil`-style guards. Return statements and
// panic-like terminators end their block with no successors — the
// function exit block is reached only by falling off the end of the
// body, which keeps "at exit" client checks from double-firing on
// explicit returns. Goto is treated as termination (conservative: no
// fact flows past it); the module and corpus do not use it.

// cfgEdge is one control-flow successor. When cond is non-nil, the edge
// is taken exactly when cond evaluates to `when`.
type cfgEdge struct {
	to   *cfgBlock
	cond ast.Expr
	when bool
}

// cfgBlock is a straight-line run of nodes: statements and the branch
// condition expressions evaluated at its end.
type cfgBlock struct {
	id    int
	nodes []ast.Node
	succs []cfgEdge
}

// funcCFG is one function body's control-flow graph.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock // reached only by falling off the end of the body
	blocks []*cfgBlock
	end    token.Pos // closing brace, for at-exit diagnostics
}

// flow is a forward dataflow problem over one CFG whose facts are maps
// from K to V. transfer interprets a block's nodes against a state it
// may mutate and returns the block's out-state, emitting diagnostics
// only when report is set; join merges src into dst at a control-flow
// join and reports whether dst changed; refine, when set, narrows a
// copy of the out-state along each conditional edge.
type flow[K comparable, V any] struct {
	transfer func(b *cfgBlock, state map[K]V, report bool) map[K]V
	join     func(dst, src map[K]V) bool
	refine   func(state map[K]V, cond ast.Expr, when bool)
}

// run iterates the worklist from entry to a fixpoint. A block's first
// in-state is a copy of the first state to reach it (joining against
// "nothing known yet" must not intersect with the empty set), and a
// block is queued on that first visit even when the state is empty.
// With report set, run then replays every reached block once in block
// order with its final in-state and returns the exit block's out-state
// (nil when the exit is unreachable).
func (f flow[K, V]) run(cfg *funcCFG, entry map[K]V, report bool) map[K]V {
	in := map[*cfgBlock]map[K]V{cfg.entry: entry}
	work := []*cfgBlock{cfg.entry}
	queued := map[*cfgBlock]bool{cfg.entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := f.transfer(b, maps.Clone(in[b]), false)
		for _, e := range b.succs {
			s := out
			if e.cond != nil && f.refine != nil {
				s = maps.Clone(out)
				f.refine(s, e.cond, e.when)
			}
			dst, seen := in[e.to]
			if !seen {
				in[e.to] = maps.Clone(s)
			}
			if (!seen || f.join(dst, s)) && !queued[e.to] {
				work = append(work, e.to)
				queued[e.to] = true
			}
		}
	}
	if !report {
		return nil
	}
	var exit map[K]V
	for _, b := range cfg.blocks {
		st, reached := in[b]
		if !reached {
			continue // never report from a never-taken state
		}
		if out := f.transfer(b, maps.Clone(st), true); b == cfg.exit {
			exit = out
		}
	}
	return exit
}

// loopFrame records the jump targets a break/continue statement resolves
// against. cont is nil for switch/select frames (break binds, continue
// does not).
type loopFrame struct {
	brk   *cfgBlock
	cont  *cfgBlock
	label string
}

type cfgBuilder struct {
	blocks       []*cfgBlock
	frames       []loopFrame
	pendingLabel string
}

// buildCFG constructs the control-flow graph of one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{}
	entry := b.newBlock()
	last := b.stmtList(body.List, entry)
	exit := b.newBlock()
	if last != nil {
		b.edge(last, exit, nil, false)
	}
	return &funcCFG{entry: entry, exit: exit, blocks: b.blocks, end: body.End()}
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{id: len(b.blocks)}
	b.blocks = append(b.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock, cond ast.Expr, when bool) {
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, when: when})
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// frameFor resolves a break (anyTarget) or continue (loops only) to its
// frame, innermost first, honoring an optional label.
func (b *cfgBuilder) frameFor(label string, needCont bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needCont && f.cont == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

// stmtList threads cur through the statements, returning the live block
// after the last one (nil once control cannot fall through).
func (b *cfgBuilder) stmtList(list []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code still gets blocks (so positions resolve),
			// but nothing links to them and clients skip them.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt adds one statement to the graph, returning the block control
// falls into afterwards, or nil if the statement terminates.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(st.List, cur)

	case *ast.LabeledStmt:
		b.pendingLabel = st.Label.Name
		out := b.stmt(st.Stmt, cur)
		b.pendingLabel = ""
		return out

	case *ast.IfStmt:
		if st.Init != nil {
			cur.nodes = append(cur.nodes, st.Init)
		}
		cur.nodes = append(cur.nodes, st.Cond)
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cur, then, st.Cond, true)
		if end := b.stmtList(st.Body.List, then); end != nil {
			b.edge(end, after, nil, false)
		}
		if st.Else != nil {
			els := b.newBlock()
			b.edge(cur, els, st.Cond, false)
			if end := b.stmt(st.Else, els); end != nil {
				b.edge(end, after, nil, false)
			}
		} else {
			b.edge(cur, after, st.Cond, false)
		}
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if st.Init != nil {
			cur.nodes = append(cur.nodes, st.Init)
		}
		head := b.newBlock()
		b.edge(cur, head, nil, false)
		if st.Cond != nil {
			head.nodes = append(head.nodes, st.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		post := b.newBlock()
		b.edge(head, body, st.Cond, true)
		if st.Cond != nil {
			b.edge(head, after, st.Cond, false)
		}
		b.frames = append(b.frames, loopFrame{brk: after, cont: post, label: label})
		if end := b.stmtList(st.Body.List, body); end != nil {
			b.edge(end, post, nil, false)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if st.Post != nil {
			post.nodes = append(post.nodes, st.Post)
		}
		b.edge(post, head, nil, false)
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(cur, head, nil, false)
		// The RangeStmt itself is the loop-head node: clients see the
		// ranged expression's use and the key/value (re)bindings there.
		head.nodes = append(head.nodes, st)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body, nil, false)
		b.edge(head, after, nil, false)
		b.frames = append(b.frames, loopFrame{brk: after, cont: head, label: label})
		if end := b.stmtList(st.Body.List, body); end != nil {
			b.edge(end, head, nil, false)
		}
		b.frames = b.frames[:len(b.frames)-1]
		return after

	case *ast.SwitchStmt:
		// A tagless switch is an if/else-if chain in disguise: build it as
		// one, so clause-selecting edges carry their boolean conditions and
		// clients can refine state per arm (`switch { case err == nil: ... }`).
		return b.switchLike(cur, st.Init, st.Tag, st.Body, st.Tag == nil)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur.nodes = append(cur.nodes, st.Init)
		}
		cur.nodes = append(cur.nodes, st.Assign)
		return b.switchLike(cur, nil, nil, st.Body, false)

	case *ast.SelectStmt:
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{brk: after, label: b.takeLabel()})
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(cur, blk, nil, false)
			if cc.Comm != nil {
				blk.nodes = append(blk.nodes, cc.Comm)
			}
			if end := b.stmtList(cc.Body, blk); end != nil {
				b.edge(end, after, nil, false)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(st.Body.List) == 0 {
			b.edge(cur, after, nil, false)
		}
		return after

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, st)
		return nil

	case *ast.BranchStmt:
		label := ""
		if st.Label != nil {
			label = st.Label.Name
		}
		switch st.Tok {
		case token.BREAK:
			if f := b.frameFor(label, false); f != nil {
				b.edge(cur, f.brk, nil, false)
			}
		case token.CONTINUE:
			if f := b.frameFor(label, true); f != nil {
				b.edge(cur, f.cont, nil, false)
			}
		}
		// goto (and a dangling break/continue) terminates conservatively.
		return nil

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, st)
		if stmtTerminates(st) { // panic-like call
			return nil
		}
		return cur

	case *ast.EmptyStmt:
		return cur

	default:
		// Assign, Decl, Send, IncDec, Go, Defer, ...: straight-line.
		cur.nodes = append(cur.nodes, st)
		return cur
	}
}

// switchLike builds expression and type switches: each clause is an
// alternative successor of the dispatching block, with fallthrough
// linking a clause's end to the next clause's body. With condChain set
// (tagless expression switch), clause selection is desugared into a
// sequential test chain whose edges carry the single-expression clause
// conditions, exactly as the equivalent if/else-if chain would.
func (b *cfgBuilder) switchLike(cur *cfgBlock, init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, condChain bool) *cfgBlock {
	label := b.takeLabel()
	if init != nil {
		cur.nodes = append(cur.nodes, init)
	}
	if tag != nil {
		cur.nodes = append(cur.nodes, tag)
	}
	after := b.newBlock()
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	starts := make([]*cfgBlock, 0, len(body.List))
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		starts = append(starts, b.newBlock())
		if cc.List == nil {
			hasDefault = true
		}
	}
	b.frames = append(b.frames, loopFrame{brk: after, label: label})
	if condChain {
		// Test chain: each non-default clause's condition is evaluated in
		// order; the default (wherever it appears in source) is the final
		// else. Multi-expression clauses are an OR the edges cannot carry,
		// so those select unconditionally (conservative: no refinement).
		test := cur
		for i, cc := range clauses {
			if cc.List == nil {
				continue
			}
			for _, e := range cc.List {
				test.nodes = append(test.nodes, e)
			}
			next := b.newBlock()
			if len(cc.List) == 1 {
				b.edge(test, starts[i], cc.List[0], true)
				b.edge(test, next, cc.List[0], false)
			} else {
				b.edge(test, starts[i], nil, false)
				b.edge(test, next, nil, false)
			}
			test = next
		}
		if hasDefault {
			for i, cc := range clauses {
				if cc.List == nil {
					b.edge(test, starts[i], nil, false)
				}
			}
		} else {
			b.edge(test, after, nil, false)
		}
	}
	for i, cc := range clauses {
		blk := starts[i]
		if !condChain {
			b.edge(cur, blk, nil, false)
			for _, e := range cc.List {
				blk.nodes = append(blk.nodes, e)
			}
		}
		bodyStmts := cc.Body
		fallsThrough := false
		if n := len(bodyStmts); n > 0 {
			if br, ok := bodyStmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				bodyStmts = bodyStmts[:n-1]
			}
		}
		end := b.stmtList(bodyStmts, blk)
		if end == nil {
			continue
		}
		if fallsThrough && i+1 < len(starts) {
			b.edge(end, starts[i+1], nil, false)
		} else {
			b.edge(end, after, nil, false)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	if !condChain && !hasDefault {
		b.edge(cur, after, nil, false)
	}
	return after
}
