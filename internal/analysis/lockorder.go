package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder derives a repo-wide lock-acquisition-order graph from
// mutex Lock/Unlock pairs. Each function exports a summary fact: the
// lock classes it (transitively) acquires, the classes still held
// when it returns (lock/unlock helpers split across functions), the
// blocking operations it performs on its caller's goroutine, and the
// order edges it witnesses (acquiring B while holding A). The Run
// phase reports recursive acquisitions and blocking operations —
// channel sends/receives, selects without default, Wait, interface
// I/O — performed while a mutex is held; the Finish phase unions the
// edges and reports every cycle as a potential deadlock.
//
// Lock identity is class-based: "pkg/path.Type.field" for a mutex
// field of a named type, "pkg/path.var" for a package-level mutex.
// Distinct instances of one class are conflated — that is what makes
// the order graph finite — so a cycle means "there exists an
// instance pairing that deadlocks", the standard lockdep reading.

// LockAcquire is one lock class acquisition; Read marks RLock.
type LockAcquire struct {
	Class string `json:"class"`
	Read  bool   `json:"read,omitempty"`
}

// LockEdge records that To was acquired while From was held, at the
// given position (the acquire or call site that witnessed it).
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Via  string `json:"via,omitempty"`
}

// LockOrderFact is the per-function lock summary.
type LockOrderFact struct {
	Acquires   []LockAcquire `json:"acquires,omitempty"`
	HeldAtExit []LockAcquire `json:"heldAtExit,omitempty"`
	Blocks     []BlockSite   `json:"blocks,omitempty"`
	Edges      []LockEdge    `json:"edges,omitempty"`
}

func (*LockOrderFact) FactName() string { return "lockorder.summary" }

// maxLockBlocks bounds the per-function blocking-site sample, and
// maxLockEdges the per-function edge sample, mirroring panicfact's
// cap so deep graphs stay cheap.
const (
	maxLockBlocks = 6
	maxLockEdges  = 16
)

func init() {
	Register(&Analyzer{
		Name: "lockorder",
		Doc: "lock-order hazard: a cycle in the repo-wide lock-acquisition-order graph (potential deadlock), " +
			"a recursive acquisition of the same mutex, or a blocking operation (channel send/receive, " +
			"select without default, Wait, interface I/O) performed while a mutex is held",
		Run:    runLockOrder,
		Finish: finishLockOrder,
	})
}

// heldLock is one entry of the walker's held-lock stack. Locks pushed
// from a callee's HeldAtExit fact have a nil root and match unlocks
// by class; locally acquired locks match by (root, path) identity.
type heldLock struct {
	class        string
	read         bool
	root         types.Object
	path         string
	deferRelease bool
}

// loSummary accumulates one function's fact content during a walk.
type loSummary struct {
	acquires map[string]LockAcquire
	exit     map[string]LockAcquire
	blocks   map[string]BlockSite
	edges    map[string]LockEdge
}

func newLoSummary() *loSummary {
	return &loSummary{
		acquires: map[string]LockAcquire{},
		exit:     map[string]LockAcquire{},
		blocks:   map[string]BlockSite{},
		edges:    map[string]LockEdge{},
	}
}

func (s *loSummary) fact() (*LockOrderFact, bool) {
	if len(s.acquires) == 0 && len(s.exit) == 0 && len(s.blocks) == 0 && len(s.edges) == 0 {
		return nil, false
	}
	f := &LockOrderFact{}
	for _, a := range s.acquires {
		f.Acquires = append(f.Acquires, a)
	}
	for _, a := range s.exit {
		f.HeldAtExit = append(f.HeldAtExit, a)
	}
	for _, b := range s.blocks {
		f.Blocks = append(f.Blocks, b)
	}
	for _, e := range s.edges {
		f.Edges = append(f.Edges, e)
	}
	sortAcquires(f.Acquires)
	sortAcquires(f.HeldAtExit)
	sortBlockSites(f.Blocks)
	if len(f.Blocks) > maxLockBlocks {
		f.Blocks = f.Blocks[:maxLockBlocks]
	}
	sortLockEdges(f.Edges)
	if len(f.Edges) > maxLockEdges {
		f.Edges = f.Edges[:maxLockEdges]
	}
	return f, true
}

func sortAcquires(s []LockAcquire) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Class != s[j].Class {
			return s[i].Class < s[j].Class
		}
		return !s[i].Read && s[j].Read
	})
}

func sortLockEdges(s []LockEdge) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].From != s[j].From {
			return s[i].From < s[j].From
		}
		if s[i].To != s[j].To {
			return s[i].To < s[j].To
		}
		return s[i].Line < s[j].Line
	})
}

// loWalker walks one function body in statement order, maintaining
// the held-lock stack. In the report pass it emits diagnostics; in
// fact passes it only fills the summary.
type loWalker struct {
	pass   *Pass
	sum    *loSummary
	held   []heldLock
	report bool
	// sync is true while walking code that runs on the caller's
	// goroutine; function literals that may run elsewhere (goroutines,
	// worker pools) contribute acquires and edges but not Blocks.
	sync bool
	// body is the block being walked at top level, consulted by the
	// local fork-join and local join-receive exemptions.
	body *ast.BlockStmt
	flow *flow
}

// walkLockOrder walks one declaration with an empty held set and
// returns the walker for its summary.
func walkLockOrder(pass *Pass, decl *ast.FuncDecl, report bool) *loWalker {
	w := &loWalker{pass: pass, sum: newLoSummary(), sync: true, report: report, body: decl.Body}
	w.flow = &flow{
		expr: w.walkExpr,
		send: func(s *ast.SendStmt) {
			w.walkExpr(s.Value)
			w.block(s.Pos(), "channel send")
		},
		ret: func(s *ast.ReturnStmt) {
			w.flow.exprs(s.Results)
			w.finishBody()
		},
		branch: w.snapshot,
		loop: func(s ast.Stmt, body func()) {
			if rangesOverChan(pass.Info, s) {
				w.block(s.Pos(), "range over channel")
			}
			w.snapshot(body)
		},
		// The communications of a select are covered by the select
		// itself: they block only when no case is ready.
		sel: func(s *ast.SelectStmt) bool {
			if !selectHasDefault(s) {
				w.block(s.Pos(), "select without default")
			}
			return false
		},
		goStmt:    func(s *ast.GoStmt) { w.walkAsync(s.Call) },
		deferStmt: func(s *ast.DeferStmt) { w.walkDefer(s.Call) },
	}
	w.flow.stmts(decl.Body.List)
	return w
}

func runLockOrder(pass *Pass) error {
	targets := nonTestDecls(pass)

	// Fixpoint: each round recomputes every function's summary with
	// the facts of the previous round visible, so intra-package call
	// chains (helper locks → caller blocks) converge. Cross-package
	// facts are final already thanks to topological unit order. The
	// deepest repo chain (custom codec build under the cache lock) is
	// four calls; eight rounds leaves headroom.
	for round := 0; round < 8; round++ {
		changed := false
		for _, t := range targets {
			w := walkLockOrder(pass, t.decl, false)
			w.finishBody()
			key := FuncKey(t.fn)
			fact, present := w.sum.fact()
			if present {
				if exportOrWithdraw(pass.Facts, key, true, fact) {
					changed = true
				}
			} else if exportOrWithdraw(pass.Facts, key, false, &LockOrderFact{}) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Report pass: walk once more with diagnostics enabled.
	for _, t := range targets {
		walkLockOrder(pass, t.decl, true)
	}
	return nil
}

// finishBody folds the locks still held at the end of the linear walk
// into the HeldAtExit summary (deferred releases excluded: they fire
// on return).
func (w *loWalker) finishBody() {
	for _, h := range w.held {
		if h.class != "" && !h.deferRelease {
			w.sum.exit[h.class] = LockAcquire{Class: h.class, Read: h.read}
		}
	}
}

// snapshot walks a branch with a copy of the held stack, so lock
// operations inside one branch do not leak into siblings or the code
// after the construct. An early-return branch that unlocks before
// returning therefore leaves the fall-through path's held set intact.
func (w *loWalker) snapshot(walk func()) {
	saved := make([]heldLock, len(w.held))
	copy(saved, w.held)
	walk()
	w.held = saved
}

// async walks a function literal that may run on another goroutine
// (a spawned body, a literal handed to a worker pool or kept as a
// callback): a fresh held stack — locks the enclosing code holds are
// not held in there — and no Blocks contribution to the enclosing
// function, while its acquires and edges still count.
func (w *loWalker) async(lit *ast.FuncLit) {
	held, sync, body := w.held, w.sync, w.body
	w.held, w.sync, w.body = nil, false, lit.Body
	w.flow.stmts(lit.Body.List)
	w.held, w.sync, w.body = held, sync, body
}

// walkAsync walks a go or defer call: its arguments are evaluated
// here and now, a literal body runs async.
func (w *loWalker) walkAsync(call *ast.CallExpr) {
	for _, arg := range call.Args {
		w.walkExpr(arg)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.async(lit)
	} else {
		w.walkExpr(call.Fun)
	}
}

// walkDefer registers deferred unlocks against the held stack (the
// lock stays held for the rest of the body but is released on every
// return path) and otherwise treats the deferred call as async.
func (w *loWalker) walkDefer(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isUnlockName(sel.Sel.Name) {
		if w.markDeferRelease(sel) {
			return
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { ... mu.Unlock() ... }(): scan for unlocks of
		// held locks and mark them released-at-exit.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if s, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && isUnlockName(s.Sel.Name) {
				w.markDeferRelease(s)
			}
			return true
		})
	}
	w.walkAsync(call)
}

func isUnlockName(name string) bool { return name == "Unlock" || name == "RUnlock" }

// markDeferRelease flags the newest matching held lock as released on
// return. Returns true when the selector named a mutex unlock.
func (w *loWalker) markDeferRelease(sel *ast.SelectorExpr) bool {
	if fn, ok := w.pass.Info.Uses[sel.Sel].(*types.Func); !ok || !isMutexMethod(fn) {
		return false
	}
	root, path, ok := chainOf(w.pass.Info, sel.X)
	if !ok {
		return true
	}
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].root == root && w.held[i].path == path {
			w.held[i].deferRelease = true
			return true
		}
	}
	return true
}

func isMutexMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isMutexType(sig.Recv().Type())
}

// walkExpr scans an expression in evaluation order for lock calls,
// function calls, receives, and nested literals.
func (w *loWalker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		for _, arg := range e.Args {
			w.walkExpr(arg)
		}
		w.handleCall(e)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.walkExpr(e.X)
			w.receive(e)
			return
		}
		w.walkExpr(e.X)
	case *ast.BinaryExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Y)
	case *ast.ParenExpr:
		w.walkExpr(e.X)
	case *ast.StarExpr:
		w.walkExpr(e.X)
	case *ast.SelectorExpr:
		w.walkExpr(e.X)
	case *ast.IndexExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Index)
	case *ast.SliceExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Low)
		w.walkExpr(e.High)
		w.walkExpr(e.Max)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			w.walkExpr(elt)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X)
	case *ast.FuncLit:
		w.async(e)
	}
}

// receive handles a blocking channel receive expression.
func (w *loWalker) receive(e *ast.UnaryExpr) {
	if root, path, ok := chainOf(w.pass.Info, e.X); ok && w.body != nil &&
		localJoinReceive(w.pass.Info, w.body, root, path) {
		return
	}
	w.block(e.Pos(), "channel receive")
}

// handleCall processes one call: mutex Lock/Unlock, blocking
// classification, and callee summary merging.
func (w *loWalker) handleCall(call *ast.CallExpr) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal runs synchronously: walk with
		// the current held set.
		w.flow.stmts(lit.Body.List)
		return
	}
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := calleeFunc(w.pass.Info, call)
	if selOK && fn != nil && isMutexMethod(fn) {
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			w.acquire(sel, sel.Sel.Name == "RLock" || sel.Sel.Name == "TryRLock", call.Pos())
		case "Unlock", "RUnlock":
			w.release(sel)
		}
		return
	}

	// Blocking classification for non-mutex calls.
	if what, ok := blockingCall(w.pass.Info, call); ok {
		exempt := false
		if what == "sync.WaitGroup.Wait" && selOK {
			if root, path, ok := chainOf(w.pass.Info, sel.X); ok && w.body != nil &&
				localForkJoinWait(w.pass.Info, w.body, root, path) {
				exempt = true
			}
		}
		if !exempt {
			w.block(call.Pos(), what)
		}
	}

	// Merge the callee's summary.
	if fn == nil {
		return
	}
	f, ok := w.pass.Facts.Import(fn, "lockorder.summary")
	if !ok {
		return
	}
	sum := f.(*LockOrderFact)
	callee := FuncKey(fn)
	pos := w.pass.Fset.Position(call.Pos())

	// Order edges: every class the callee acquires is acquired after
	// every classed lock currently held here.
	for _, h := range w.held {
		if h.class == "" {
			continue
		}
		for _, a := range sum.Acquires {
			if a.Class == h.class {
				continue // cross-instance self-edges are pure noise
			}
			w.edge(h.class, a.Class, pos, calleeShortName(callee))
		}
	}
	// The callee's acquires and edges become ours (transitively).
	for _, a := range sum.Acquires {
		w.sum.acquires[acquireKey(a)] = a
	}
	for _, e := range sum.Edges {
		if _, dup := w.sum.edges[e.From+"|"+e.To]; !dup {
			w.sum.edges[e.From+"|"+e.To] = e
		}
	}
	// Blocking ops inside the callee block this goroutine too.
	if w.sync {
		mergeBlockSites(w.sum.blocks, callee, sum.Blocks)
	}
	if w.report && len(w.held) > 0 {
		for _, b := range sum.Blocks {
			w.reportBlocked(token.Position{Filename: b.File, Line: b.Line, Column: b.Col}, b.What, calleeChain(callee, b.Via))
		}
	}
	// Locks the callee leaves held join our held set (lock helpers).
	for _, a := range sum.HeldAtExit {
		w.held = append(w.held, heldLock{class: a.Class, read: a.Read})
	}
}

func calleeChain(callee, via string) string {
	chain := calleeShortName(callee)
	if via != "" {
		chain += " → " + via
	}
	return chain
}

func acquireKey(a LockAcquire) string {
	if a.Read {
		return a.Class + "|r"
	}
	return a.Class
}

// acquire pushes a lock onto the held stack, recording order edges
// from every already-held classed lock and checking for recursive
// acquisition of the same instance.
func (w *loWalker) acquire(sel *ast.SelectorExpr, read bool, pos token.Pos) {
	class := lockClass(w.pass.Info, w.pass.Pkg, sel.X)
	root, path, chainKnown := chainOf(w.pass.Info, sel.X)
	p := w.pass.Fset.Position(pos)

	if w.report && chainKnown {
		for _, h := range w.held {
			if h.root == root && h.path == path && !(h.read && read) {
				w.pass.Reportf(pos, "recursive acquisition of %s: the mutex is already held here, so this %s blocks forever",
					lockDisplay(class, sel), lockVerb(read))
			}
		}
	}
	if class != "" {
		a := LockAcquire{Class: class, Read: read}
		w.sum.acquires[acquireKey(a)] = a
		for _, h := range w.held {
			if h.class != "" && h.class != class {
				w.edge(h.class, class, p, "")
			}
		}
	}
	w.held = append(w.held, heldLock{class: class, read: read, root: root, path: path})
}

func lockVerb(read bool) string {
	if read {
		return "RLock"
	}
	return "Lock"
}

func lockDisplay(class string, sel *ast.SelectorExpr) string {
	if class != "" {
		return class
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name
	}
	return "mutex"
}

// release pops the newest matching held lock: by instance identity
// when the chain resolves, else by class.
func (w *loWalker) release(sel *ast.SelectorExpr) {
	root, path, chainKnown := chainOf(w.pass.Info, sel.X)
	class := lockClass(w.pass.Info, w.pass.Pkg, sel.X)
	for i := len(w.held) - 1; i >= 0; i-- {
		h := w.held[i]
		match := (chainKnown && h.root == root && h.path == path) ||
			(h.root == nil && h.class != "" && h.class == class)
		if match {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// edge records an order edge once per (from, to) pair.
func (w *loWalker) edge(from, to string, pos token.Position, via string) {
	key := from + "|" + to
	if _, dup := w.sum.edges[key]; dup {
		return
	}
	w.sum.edges[key] = LockEdge{From: from, To: to, File: pos.Filename, Line: pos.Line, Col: pos.Column, Via: via}
}

// block handles one local blocking operation: recorded in the summary
// when synchronous, reported when a mutex is held.
func (w *loWalker) block(pos token.Pos, what string) {
	p := w.pass.Fset.Position(pos)
	if w.sync {
		site := BlockSite{File: p.Filename, Line: p.Line, Col: p.Column, What: what}
		w.sum.blocks[site.key()] = site
	}
	if w.report && len(w.held) > 0 {
		w.reportBlocked(token.Position{Filename: p.Filename, Line: p.Line, Column: p.Column}, what, "")
	}
}

// reportBlocked emits the held-while-blocking diagnostic at the
// blocking site, naming the innermost held lock.
func (w *loWalker) reportBlocked(pos token.Position, what, via string) {
	h := w.held[len(w.held)-1]
	lock := h.class
	if lock == "" {
		lock = "a mutex"
	}
	suffix := ""
	if via != "" {
		suffix = " (via " + via + ")"
	}
	w.pass.ReportAt(pos, "%s while %s is held%s: the lock is pinned for the full wait, and any peer needing it deadlocks the pipeline",
		what, lock, suffix)
}

// finishLockOrder unions every function's order edges and reports
// each cycle in the class graph once, at the lexically first edge of
// the cycle.
func finishLockOrder(pass *Pass) error {
	type adj map[string][]LockEdge
	graph := adj{}
	seenEdge := map[string]bool{}
	for _, key := range pass.Graph.Keys() {
		f, ok := pass.Facts.ImportKey(key, "lockorder.summary")
		if !ok {
			continue
		}
		for _, e := range f.(*LockOrderFact).Edges {
			ek := e.From + "|" + e.To
			if seenEdge[ek] {
				continue
			}
			seenEdge[ek] = true
			graph[e.From] = append(graph[e.From], e)
		}
	}
	for from := range graph {
		sortLockEdges(graph[from])
	}

	// DFS cycle detection over lock classes; each cycle reported once
	// under its canonical (smallest-first) rotation.
	classes := make([]string, 0, len(graph))
	for c := range graph {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	reported := map[string]bool{}
	var stack []LockEdge
	onStack := map[string]bool{}
	var visit func(string)
	visit = func(c string) {
		onStack[c] = true
		for _, e := range graph[c] {
			if onStack[e.To] {
				cyc := extractCycle(stack, e)
				ck := cycleKey(cyc)
				if !reported[ck] {
					reported[ck] = true
					first := cyc[0]
					pass.ReportAt(token.Position{Filename: first.File, Line: first.Line, Column: first.Col},
						"lock-order cycle %s: these mutexes are acquired in conflicting orders, a potential deadlock",
						cycleString(cyc))
				}
				continue
			}
			stack = append(stack, e)
			visit(e.To)
			stack = stack[:len(stack)-1]
		}
		onStack[c] = false
	}
	for _, c := range classes {
		visit(c)
	}
	return nil
}

// extractCycle returns the edges of the cycle that closing edge e
// completes, from e.To (the repeated class) around to e.
func extractCycle(stack []LockEdge, e LockEdge) []LockEdge {
	start := 0
	for i, s := range stack {
		if s.From == e.To {
			start = i
			break
		}
	}
	cyc := append([]LockEdge(nil), stack[start:]...)
	return append(cyc, e)
}

// cycleKey canonicalizes a cycle to its rotation starting at the
// smallest class name, so one cycle found from different DFS roots
// reports once.
func cycleKey(cyc []LockEdge) string {
	lowest := 0
	for i := range cyc {
		if cyc[i].From < cyc[lowest].From {
			lowest = i
		}
	}
	var b strings.Builder
	for i := range cyc {
		b.WriteString(cyc[(lowest+i)%len(cyc)].From)
		b.WriteString("→")
	}
	return b.String()
}

func cycleString(cyc []LockEdge) string {
	var b strings.Builder
	for _, e := range cyc {
		b.WriteString(shortClass(e.From))
		b.WriteString(" → ")
	}
	b.WriteString(shortClass(cyc[0].From))
	return b.String()
}

// shortClass trims the package path off a lock class for display.
func shortClass(c string) string {
	if i := strings.LastIndex(c, "/"); i >= 0 {
		return c[i+1:]
	}
	return c
}
