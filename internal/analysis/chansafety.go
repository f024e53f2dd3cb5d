package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// chansafety checks channel ownership contracts through def-use
// tracking and per-function facts:
//
//  1. send (or close) on a channel that a reachable earlier path
//     closes — including sends hidden behind method calls, via
//     exported closes/sends facts (the Pipe "Submit after Close"
//     misuse);
//  2. close on the consumer side: a function that only ever receives
//     from a channel it did not create has no business closing it —
//     close belongs to the sender;
//  3. goroutines spawned in an unbounded loop (range, or for without
//     a condition) with no channel-based token or worker budget in
//     the loop;
//  4. select statements that can never proceed because every case
//     waits on a local channel with no live producer (nothing was
//     started or shared before the select that could ever fire it).

// ChanUseFact summarizes which channel parameters (by index) and
// receiver fields (by dotted path) a function closes or sends on,
// transitively through its callees.
type ChanUseFact struct {
	ClosesParams []int    `json:"closesParams,omitempty"`
	ClosesFields []string `json:"closesFields,omitempty"`
	SendsParams  []int    `json:"sendsParams,omitempty"`
	SendsFields  []string `json:"sendsFields,omitempty"`
}

func (*ChanUseFact) FactName() string { return "chansafety.chanuse" }

func init() {
	Register(&Analyzer{
		Name: "chansafety",
		Doc: "channel contract violation: send or close after a reachable close (panics at runtime), " +
			"close on the consumer side of a channel, unbounded goroutine spawn in a loop, or a select " +
			"that can never proceed because no producer for its channels was started",
		Run: runChanSafety,
	})
}

// chainRef identifies a channel expression within one function walk:
// the root object plus the dotted field path from it.
type chainRef struct {
	root types.Object
	path string
}

func chanChain(info *types.Info, e ast.Expr) (chainRef, bool) {
	root, path, ok := chainOf(info, e)
	if !ok || root == nil {
		return chainRef{}, false
	}
	return chainRef{root, path}, true
}

func runChanSafety(pass *Pass) error {
	targets := nonTestDecls(pass)

	// Fixpoint over closes/sends facts so helper indirection (A closes
	// the channel B passed it) converges before the check pass.
	for round := 0; round < 5; round++ {
		changed := false
		for _, t := range targets {
			fact, present := chanUseSummary(pass, t)
			if exportOrWithdraw(pass.Facts, FuncKey(t.fn), present, fact) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for _, t := range targets {
		checkChanSafety(pass, t)
	}
	return nil
}

// paramIndexOf maps a chain to the index of the channel parameter it
// names, or -1.
func paramIndexOf(sig *types.Signature, ref chainRef) int {
	if ref.path != "" {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if p == ref.root && isChanType(p.Type()) {
			return i
		}
	}
	return -1
}

func recvObjOf(sig *types.Signature) types.Object {
	if sig.Recv() == nil {
		return nil
	}
	return sig.Recv()
}

// chanUseSummary computes one function's ChanUseFact: direct closes
// and sends on parameters/receiver fields, plus those of callees the
// function forwards them to.
func chanUseSummary(pass *Pass, t declTarget) (*ChanUseFact, bool) {
	sig := t.fn.Type().(*types.Signature)
	recv := recvObjOf(sig)
	closesP, sendsP := map[int]bool{}, map[int]bool{}
	closesF, sendsF := map[string]bool{}, map[string]bool{}

	note := func(ref chainRef, closes bool) {
		if i := paramIndexOf(sig, ref); i >= 0 {
			if closes {
				closesP[i] = true
			} else {
				sendsP[i] = true
			}
			return
		}
		if recv != nil && ref.root == recv && ref.path != "" {
			if closes {
				closesF[ref.path] = true
			} else {
				sendsF[ref.path] = true
			}
		}
	}

	ast.Inspect(t.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if ref, ok := chanChain(pass.Info, n.Chan); ok {
				note(ref, false)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && isBuiltin(pass.Info, id) {
				if len(n.Args) == 1 {
					if ref, ok := chanChain(pass.Info, n.Args[0]); ok {
						note(ref, true)
					}
				}
				return true
			}
			// Forwarded uses through callees with facts.
			fn := calleeFunc(pass.Info, n)
			if fn == nil {
				return true
			}
			f, ok := pass.Facts.Import(fn, "chansafety.chanuse")
			if !ok {
				return true
			}
			use := f.(*ChanUseFact)
			for _, idx := range use.ClosesParams {
				if idx < len(n.Args) {
					if ref, ok := chanChain(pass.Info, n.Args[idx]); ok {
						note(ref, true)
					}
				}
			}
			for _, idx := range use.SendsParams {
				if idx < len(n.Args) {
					if ref, ok := chanChain(pass.Info, n.Args[idx]); ok {
						note(ref, false)
					}
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if ref, ok := chanChain(pass.Info, sel.X); ok {
					for _, fld := range use.ClosesFields {
						note(chainRef{ref.root, joinField(ref.path, fld)}, true)
					}
					for _, fld := range use.SendsFields {
						note(chainRef{ref.root, joinField(ref.path, fld)}, false)
					}
				}
			}
		}
		return true
	})

	if len(closesP) == 0 && len(sendsP) == 0 && len(closesF) == 0 && len(sendsF) == 0 {
		return &ChanUseFact{}, false
	}
	return &ChanUseFact{
		ClosesParams: sortedInts(closesP),
		ClosesFields: sortedStrings(closesF),
		SendsParams:  sortedInts(sendsP),
		SendsFields:  sortedStrings(sendsF),
	}, true
}

func joinField(prefix, field string) string {
	if prefix == "" {
		return field
	}
	return prefix + "." + field
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedStrings(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// chanProfile is the whole-body usage profile of one function,
// feeding the consumer-close and dead-select rules.
type chanProfile struct {
	sends    map[chainRef]int
	receives map[chainRef]int
	made     map[chainRef]bool // assigned from make(chan ...) here
	buffered map[chainRef]bool // made with a nonzero constant capacity
	escaped  map[chainRef]bool // shared: call arg, go body, return, alias
}

func profileChans(pass *Pass, body *ast.BlockStmt) *chanProfile {
	p := &chanProfile{
		sends:    map[chainRef]int{},
		receives: map[chainRef]int{},
		made:     map[chainRef]bool{},
		buffered: map[chainRef]bool{},
		escaped:  map[chainRef]bool{},
	}
	markEscape := func(e ast.Expr) {
		if ref, ok := chanChain(pass.Info, e); ok {
			if tv, ok := pass.Info.Types[e]; ok && isChanType(tv.Type) {
				p.escaped[ref] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if ref, ok := chanChain(pass.Info, n.Chan); ok {
				p.sends[ref]++
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if ref, ok := chanChain(pass.Info, n.X); ok {
					p.receives[ref]++
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok && isChanType(tv.Type) {
				if ref, ok := chanChain(pass.Info, n.X); ok {
					p.receives[ref]++
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if ok {
					if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && id.Name == "make" && isBuiltin(pass.Info, id) {
						if ref, refOK := chanChain(pass.Info, n.Lhs[i]); refOK {
							if tv, tvOK := pass.Info.Types[call]; tvOK && isChanType(tv.Type) {
								p.made[ref] = true
								if len(call.Args) >= 2 {
									if v, isConst := constInt(pass.Info, call.Args[1]); isConst && v > 0 {
										p.buffered[ref] = true
									}
								}
								continue
							}
						}
					}
				}
				// Aliasing a channel into another variable shares it.
				markEscape(rhs)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && isBuiltin(pass.Info, id) {
				return true // close/make/len/cap do not share the value
			}
			for _, arg := range n.Args {
				markEscape(arg)
			}
		case *ast.GoStmt:
			// Anything a spawned goroutine touches has a live peer.
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok {
					markEscape(e)
				}
				return true
			})
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markEscape(r)
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					markEscape(kv.Value)
				} else {
					markEscape(elt)
				}
			}
		case *ast.DeferStmt:
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok {
					markEscape(e)
				}
				return true
			})
			return false
		}
		return true
	})
	return p
}

// closeRec remembers where a chain was closed for diagnostics.
type closeRec struct {
	pos token.Position
	via string
}

// csWalker holds the order-sensitive state of the send-after-close
// rule, snapshotted around branches like lockorder's held set, plus
// the loop nesting the loop-spawn rule needs.
type csWalker struct {
	pass    *Pass
	profile *chanProfile
	closed  map[chainRef]closeRec
	// loops is the stack of enclosing unbounded-loop bodies.
	loops []*ast.BlockStmt
	flow  *flow
}

func checkChanSafety(pass *Pass, t declTarget) {
	w := &csWalker{pass: pass, profile: profileChans(pass, t.decl.Body), closed: map[chainRef]closeRec{}}
	w.flow = &flow{
		expr:   w.walkExpr,
		send:   w.send,
		branch: w.snapshot,
		loop:   w.loop,
		sel: func(s *ast.SelectStmt) bool {
			w.checkDeadSelect(s)
			return false
		},
		goStmt:    w.goStmt,
		deferStmt: func(s *ast.DeferStmt) { w.flow.exprs(s.Call.Args) },
	}
	w.flow.stmts(t.decl.Body.List)
}

func (w *csWalker) snapshot(walk func()) {
	saved := make(map[chainRef]closeRec, len(w.closed))
	for k, v := range w.closed {
		saved[k] = v
	}
	walk()
	w.closed = saved
}

// ownDomain walks a function literal that may run on another
// goroutine: its view of this function's closes is racy, so it starts
// with an empty closed set and outside every loop.
func (w *csWalker) ownDomain(lit *ast.FuncLit) {
	closed, loops := w.closed, w.loops
	w.closed, w.loops = map[chainRef]closeRec{}, nil
	w.flow.stmts(lit.Body.List)
	w.closed, w.loops = closed, loops
}

func (w *csWalker) send(s *ast.SendStmt) {
	w.walkExpr(s.Value)
	if ref, ok := chanChain(w.pass.Info, s.Chan); ok {
		if rec, isClosed := w.closed[ref]; isClosed {
			w.pass.Reportf(s.Pos(), "send on %s, which a reachable path closes at %s%s: send on a closed channel panics",
				chainDisplay(s.Chan), posDisplay(rec.pos), viaSuffix(rec.via))
		}
	}
}

// loop snapshots the body and, for a loop with no bound of its own
// (range, or for without a condition), records it for checkLoopSpawn.
func (w *csWalker) loop(s ast.Stmt, body func()) {
	var unbounded *ast.BlockStmt
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Cond == nil {
			unbounded = s.Body
		}
	case *ast.RangeStmt:
		unbounded = s.Body
	}
	w.snapshot(func() {
		if unbounded != nil {
			w.loops = append(w.loops, unbounded)
		}
		body()
		if unbounded != nil {
			w.loops = w.loops[:len(w.loops)-1]
		}
	})
}

func (w *csWalker) goStmt(s *ast.GoStmt) {
	w.checkLoopSpawn(s)
	w.flow.exprs(s.Call.Args)
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		w.ownDomain(lit)
	}
}

func (w *csWalker) walkExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.ownDomain(n)
			return false
		case *ast.CallExpr:
			w.handleCall(n)
		}
		return true
	})
}

func (w *csWalker) handleCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && isBuiltin(w.pass.Info, id) {
		if len(call.Args) != 1 {
			return
		}
		ref, ok := chanChain(w.pass.Info, call.Args[0])
		if !ok {
			return
		}
		if rec, isClosed := w.closed[ref]; isClosed {
			w.pass.Reportf(call.Pos(), "close of %s, which a reachable path already closes at %s%s: closing a closed channel panics",
				chainDisplay(call.Args[0]), posDisplay(rec.pos), viaSuffix(rec.via))
		}
		if w.profile.receives[ref] > 0 && w.profile.sends[ref] == 0 && !w.profile.made[ref] {
			w.pass.Reportf(call.Pos(), "close of %s on the consumer side: this function only receives from the channel and did not create it; close belongs to the sender",
				chainDisplay(call.Args[0]))
		}
		w.closed[ref] = closeRec{pos: w.pass.Fset.Position(call.Pos())}
		return
	}

	fn := calleeFunc(w.pass.Info, call)
	if fn == nil {
		return
	}
	f, ok := w.pass.Facts.Import(fn, "chansafety.chanuse")
	if !ok {
		return
	}
	use := f.(*ChanUseFact)
	short := calleeShortName(FuncKey(fn))
	pos := w.pass.Fset.Position(call.Pos())

	check := func(ref chainRef, what string) {
		if rec, isClosed := w.closed[ref]; isClosed {
			w.pass.Reportf(call.Pos(), "%s sends on %s, which a reachable path closes at %s%s: send on a closed channel panics",
				short, what, posDisplay(rec.pos), viaSuffix(rec.via))
		}
	}
	mark := func(ref chainRef) {
		if _, dup := w.closed[ref]; !dup {
			w.closed[ref] = closeRec{pos: pos, via: short}
		}
	}

	for _, idx := range use.SendsParams {
		if idx < len(call.Args) {
			if ref, ok := chanChain(w.pass.Info, call.Args[idx]); ok {
				check(ref, "its argument")
			}
		}
	}
	var recvRef chainRef
	recvKnown := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvRef, recvKnown = chanChain(w.pass.Info, sel.X)
	}
	if recvKnown {
		for _, fld := range use.SendsFields {
			check(chainRef{recvRef.root, joinField(recvRef.path, fld)}, "its "+fld+" channel")
		}
	}
	for _, idx := range use.ClosesParams {
		if idx < len(call.Args) {
			if ref, ok := chanChain(w.pass.Info, call.Args[idx]); ok {
				mark(ref)
			}
		}
	}
	if recvKnown {
		for _, fld := range use.ClosesFields {
			mark(chainRef{recvRef.root, joinField(recvRef.path, fld)})
		}
	}
}

// checkLoopSpawn flags a goroutine spawned inside an unbounded loop
// with nothing in the loop tying the spawn rate to a budget: no
// channel operation (token semaphore) and no submit/acquire call
// outside the spawned body itself.
func (w *csWalker) checkLoopSpawn(g *ast.GoStmt) {
	if len(w.loops) == 0 {
		return
	}
	loop := w.loops[len(w.loops)-1]
	if loopHasBudget(w.pass, loop) {
		return
	}
	w.pass.Reportf(g.Pos(), "goroutine spawned in an unbounded loop with no worker budget: each iteration adds a goroutine; bound it with a token channel, errgroup-style semaphore, or parallel.Pipe")
}

func loopHasBudget(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // the spawned work itself is not a budget
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Submit", "Acquire", "Go":
					found = true
				}
			}
		}
		return true
	})
	return found
}

// checkDeadSelect reports a select in which every case waits on a
// function-local channel that nothing else can ever fire: no escape
// to a call, goroutine, or alias, no buffered capacity for send
// cases, and no prior send for receive cases.
func (w *csWalker) checkDeadSelect(s *ast.SelectStmt) {
	if selectHasDefault(s) || len(s.Body.List) == 0 {
		return
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			return
		}
		var chExpr ast.Expr
		isSend := false
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			chExpr, isSend = comm.Chan, true
		case *ast.ExprStmt:
			u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr)
			if !ok || u.Op != token.ARROW {
				return
			}
			chExpr = u.X
		case *ast.AssignStmt:
			if len(comm.Rhs) != 1 {
				return
			}
			u, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr)
			if !ok || u.Op != token.ARROW {
				return
			}
			chExpr = u.X
		default:
			return
		}
		ref, ok := chanChain(w.pass.Info, chExpr)
		if !ok || !w.profile.made[ref] || w.profile.escaped[ref] {
			return
		}
		if isSend && w.profile.buffered[ref] {
			return // a buffered send case may proceed on its own
		}
		if !isSend && w.profile.sends[ref] > 0 {
			return // an earlier same-goroutine send may be buffered
		}
	}
	w.pass.Reportf(s.Pos(), "select can never proceed: every case waits on a channel made here that no goroutine, callee, or alias can fire — the producer was never started")
}

func chainDisplay(e ast.Expr) string {
	var b strings.Builder
	writeChain(&b, e)
	if b.Len() == 0 {
		return "channel"
	}
	return b.String()
}

func writeChain(b *strings.Builder, e ast.Expr) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		b.WriteString(v.Name)
	case *ast.SelectorExpr:
		writeChain(b, v.X)
		if b.Len() > 0 {
			b.WriteString(".")
		}
		b.WriteString(v.Sel.Name)
	case *ast.UnaryExpr:
		writeChain(b, v.X)
	case *ast.StarExpr:
		writeChain(b, v.X)
	}
}

func posDisplay(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + itoa(p.Line)
}

func viaSuffix(via string) string {
	if via == "" {
		return ""
	}
	return " (via " + via + ")"
}
