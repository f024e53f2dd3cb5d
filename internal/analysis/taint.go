package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file is the def-use/taint core shared by the interprocedural
// analyzers. Within one function it walks statements in order,
// tracking which objects carry values decoded from untrusted bytes
// (wire sources: encoding/binary reads, bitio bit reads, huffman
// symbol decodes). A comparison in an if or switch condition
// sanitizes the compared objects — the analyzers flag *unguarded*
// flows, and any explicit bound check is taken as the guard. Calls
// are summarized through three fact kinds so taint crosses function
// and package boundaries without a global data-flow pass:
//
//   - taint.result: the callee's results derive from wire bytes
//   - taint.ptrargs: the callee writes wire bytes through these
//     pointer parameters (e.g. a binary.Read wrapper)
//   - taint.paramalloc: the callee passes these parameters to an
//     allocation size without its own bound check
//
// Summaries are computed per unit to a fixpoint (so helpers may be
// declared after their callers, or recurse) before analyzers run;
// topological unit ordering makes dependency summaries available to
// dependents.

// UntrustedResultFact marks a function whose results derive from
// untrusted wire bytes.
type UntrustedResultFact struct {
	Origin string `json:"origin"`
}

func (*UntrustedResultFact) FactName() string { return "taint.result" }

// TaintsPtrArgsFact marks a function that stores wire-derived bytes
// through the pointees of the listed parameter indices.
type TaintsPtrArgsFact struct {
	Params []int  `json:"params"`
	Origin string `json:"origin"`
}

func (*TaintsPtrArgsFact) FactName() string { return "taint.ptrargs" }

// ParamAllocFact marks a function that lets the listed parameters
// reach an allocation size (make/append growth) without comparing
// them against a bound first. A caller passing a tainted value into
// such a parameter inherits the allocation sink.
type ParamAllocFact struct {
	Params []int `json:"params"`
}

func (*ParamAllocFact) FactName() string { return "taint.paramalloc" }

// taintHooks receive sink events during a scan. Nil fields are
// skipped, so each analyzer subscribes only to the sinks it reports.
type taintHooks struct {
	// makeSize fires when a tainted value reaches a make length or
	// capacity argument.
	makeSize func(pos token.Pos, origin string)
	// readBound fires when a tainted value bounds an io read
	// (io.ReadFull / io.ReadAtLeast slice bounds, io.CopyN count).
	readBound func(pos token.Pos, what, origin string)
	// loopAppend fires for an append whose enclosing loop runs a
	// tainted number of iterations.
	loopAppend func(pos token.Pos, origin string)
	// index fires when a tainted value is used as an index or slice
	// bound (a potential out-of-range panic).
	index func(pos token.Pos, origin string)
	// paramAlloc fires when a tainted argument flows into a callee
	// parameter that the callee's ParamAllocFact marks as reaching an
	// allocation unguarded.
	paramAlloc func(pos token.Pos, callee *types.Func, origin string)
}

const paramOriginPrefix = "\x00param#"

func paramOrigin(i int) string { return fmt.Sprintf("%s%d", paramOriginPrefix, i) }

func isParamOrigin(o string) (int, bool) {
	if !strings.HasPrefix(o, paramOriginPrefix) {
		return 0, false
	}
	i, err := strconv.Atoi(strings.TrimPrefix(o, paramOriginPrefix))
	if err != nil {
		return 0, false
	}
	return i, true
}

// combineOrigin joins two taint origins, preferring a concrete wire
// origin over a parameter-derived one so reports name the source.
func combineOrigin(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	if _, ap := isParamOrigin(a); ap {
		if _, bp := isParamOrigin(b); !bp {
			return b
		}
	}
	return a
}

// viaOrigin extends a summarized origin with the callee it crossed.
func viaOrigin(base, callee string) string {
	o := base + " via " + callee
	if len(o) > 160 {
		o = o[:160]
	}
	return o
}

// taintEngine walks one function.
type taintEngine struct {
	info  *types.Info
	facts *FactStore
	hooks *taintHooks

	tainted map[types.Object]string
	// loopOrigins is the stack of tainted loop-trip origins enclosing
	// the current statement; pendingLoop carries the origin a loop head
	// found to the loop callback that pushes it.
	loopOrigins []string
	pendingLoop string
	flow        *flow

	// Summary-mode state (hooks == nil): params are pre-tainted with
	// param origins and the walk records what escapes where.
	paramObjs   map[types.Object]int
	resultObjs  []types.Object
	retOrigin   string
	ptrParams   map[int]string
	allocParams map[int]bool
}

func newTaintEngine(info *types.Info, facts *FactStore, hooks *taintHooks) *taintEngine {
	e := &taintEngine{
		info:        info,
		facts:       facts,
		hooks:       hooks,
		tainted:     map[types.Object]string{},
		paramObjs:   map[types.Object]int{},
		ptrParams:   map[int]string{},
		allocParams: map[int]bool{},
	}
	e.flow = &flow{
		expr:   func(x ast.Expr) { e.expr(x) },
		cond:   e.cond,
		assign: e.assignStmt,
		decl:   e.valueSpec,
		rng:    e.rangeHead,
		loop:   e.loop,
		ret:    e.ret,
	}
	return e
}

// scanTaint runs the reporting walk over one declared function,
// firing hooks at unguarded sinks.
func scanTaint(info *types.Info, facts *FactStore, decl *ast.FuncDecl, hooks *taintHooks) {
	e := newTaintEngine(info, facts, hooks)
	e.flow.stmts(decl.Body.List)
}

// summarizeUnitTaint computes and exports the three summary fact
// kinds for every non-test function of the unit, iterating to a
// fixpoint so intra-package call chains summarize regardless of
// declaration order.
func summarizeUnitTaint(fset *token.FileSet, unit *Unit, facts *FactStore) {
	type target struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var targets []target
	for _, file := range unit.Files {
		if strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := unit.Info.Defs[fd.Name].(*types.Func); ok {
				targets = append(targets, target{fn, fd})
			}
		}
	}
	for round := 0; round < 4; round++ {
		changed := false
		for _, t := range targets {
			if summarizeFunc(unit.Info, facts, t.fn, t.decl) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// summarizeFunc runs one summary walk and (re-)exports the resulting
// facts, reporting whether anything changed.
func summarizeFunc(info *types.Info, facts *FactStore, fn *types.Func, decl *ast.FuncDecl) bool {
	e := newTaintEngine(info, facts, nil)

	// Pre-taint parameters with their indices so the walk discovers
	// param-to-sink and param-to-result flows.
	idx := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				e.paramObjs[obj] = idx
				e.tainted[obj] = paramOrigin(idx)
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	if decl.Type.Results != nil {
		for _, field := range decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					e.resultObjs = append(e.resultObjs, obj)
				}
			}
		}
	}
	e.flow.stmts(decl.Body.List)

	key := FuncKey(fn)
	changed := false
	changed = exportOrWithdraw(facts, key, e.retOrigin != "", &UntrustedResultFact{Origin: e.retOrigin}) || changed
	if len(e.ptrParams) > 0 {
		var params []int
		origin := ""
		for i, o := range e.ptrParams {
			params = append(params, i)
			origin = combineOrigin(origin, o)
		}
		sortInts(params)
		changed = exportOrWithdraw(facts, key, true, &TaintsPtrArgsFact{Params: params, Origin: origin}) || changed
	} else {
		changed = exportOrWithdraw(facts, key, false, &TaintsPtrArgsFact{}) || changed
	}
	if len(e.allocParams) > 0 {
		var params []int
		for i := range e.allocParams {
			params = append(params, i)
		}
		sortInts(params)
		changed = exportOrWithdraw(facts, key, true, &ParamAllocFact{Params: params}) || changed
	} else {
		changed = exportOrWithdraw(facts, key, false, &ParamAllocFact{}) || changed
	}
	return changed
}

// exportOrWithdraw reconciles one fact slot against the store and
// reports whether the stored state changed.
func exportOrWithdraw(facts *FactStore, key string, present bool, fact Fact) bool {
	prev, had := facts.ImportKey(key, fact.FactName())
	if !present {
		if had {
			facts.DeleteKey(key, fact.FactName())
			return true
		}
		return false
	}
	if had && fmt.Sprintf("%+v", prev) == fmt.Sprintf("%+v", fact) {
		return false
	}
	facts.ExportKey(key, fact)
	return true
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ---- statement callbacks (the walk itself is flow.go) ----

func (e *taintEngine) valueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		o := ""
		if i < len(vs.Values) {
			o = e.expr(vs.Values[i])
		} else if len(vs.Values) == 1 {
			o = e.expr(vs.Values[0])
		}
		e.taintIdent(name, o)
	}
}

// cond evaluates a branch-deciding expression. An if condition, a
// switch tag and the cases of a tagless switch are bound checks and
// sanitize what they compare; a loop condition over a tainted operand
// instead marks the loop as running a wire-controlled number of trips.
func (e *taintEngine) cond(kind condKind, x ast.Expr) {
	switch kind {
	case condFor:
		// Assigned after e.expr: a FuncLit in the condition may hold a
		// loop of its own, which consumes pendingLoop.
		origin := e.taintedCondOrigin(x)
		e.expr(x)
		e.pendingLoop = origin
	case condIf, condTag, condCaseBool:
		e.expr(x)
		e.sanitizeCond(x)
	default:
		e.expr(x)
	}
}

func (e *taintEngine) rangeHead(s *ast.RangeStmt) {
	o := e.expr(s.X)
	overInt := false
	if tv, ok := e.info.Types[s.X]; ok && tv.Type != nil {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			overInt = true
		}
	}
	if s.Key != nil {
		ko := ""
		if overInt {
			ko = o
		}
		e.assignTo(s.Key, ko)
	}
	if s.Value != nil {
		e.assignTo(s.Value, o)
	}
	if overInt {
		e.pendingLoop = o
	}
}

// loop pushes the trip-count origin its head left in pendingLoop for
// the duration of the body.
func (e *taintEngine) loop(_ ast.Stmt, body func()) {
	origin := e.pendingLoop
	e.pendingLoop = ""
	if origin == "" {
		body()
		return
	}
	e.loopOrigins = append(e.loopOrigins, origin)
	body()
	e.loopOrigins = e.loopOrigins[:len(e.loopOrigins)-1]
}

func (e *taintEngine) ret(s *ast.ReturnStmt) {
	for _, r := range s.Results {
		e.noteReturn(e.expr(r))
	}
	if len(s.Results) == 0 {
		for _, obj := range e.resultObjs {
			e.noteReturn(e.tainted[obj])
		}
	}
}

func (e *taintEngine) noteReturn(origin string) {
	if origin == "" {
		return
	}
	if _, isParam := isParamOrigin(origin); isParam {
		return // returning a parameter is not untrusted by itself
	}
	e.retOrigin = combineOrigin(e.retOrigin, origin)
}

func (e *taintEngine) assignStmt(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		o := e.expr(s.Rhs[0])
		for _, l := range s.Lhs {
			e.assignTo(l, o)
		}
		return
	}
	for i, r := range s.Rhs {
		o := e.expr(r)
		if i >= len(s.Lhs) {
			continue
		}
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			e.assignTo(s.Lhs[i], o)
		} else if o != "" {
			// Compound assignment only ever adds taint.
			e.assignTo(s.Lhs[i], o)
		}
	}
}

// assignTo propagates taint into an assignment target. Storing into
// an element or field of a container taints the whole container
// (coarse, but sound for the bound-check policy); a plain identifier
// assignment replaces its taint, so reassigning from a clean value
// launders.
func (e *taintEngine) assignTo(l ast.Expr, origin string) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		e.taintIdent(l, origin)
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
		if origin == "" {
			return
		}
		if root := e.rootObj(l); root != nil {
			e.tainted[root] = combineOrigin(e.tainted[root], origin)
		}
	}
}

func (e *taintEngine) taintIdent(id *ast.Ident, origin string) {
	if id.Name == "_" {
		return
	}
	obj := e.info.Defs[id]
	if obj == nil {
		obj = e.info.Uses[id]
	}
	if obj == nil {
		return
	}
	if origin == "" {
		delete(e.tainted, obj)
		return
	}
	e.tainted[obj] = origin
}

// rootObj resolves the base identifier of a selector/index/deref
// chain (h.EncLen -> h, buf[i] -> buf).
func (e *taintEngine) rootObj(x ast.Expr) types.Object {
	return rootObjOf(e.info, x)
}

// rootObjOf is the shared walk behind taintEngine.rootObj, also used
// by integrityflow's verification-state engine.
func rootObjOf(info *types.Info, x ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(x).(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				if _, isPkg := obj.(*types.PkgName); isPkg {
					return nil
				}
				return obj
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil
			}
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		default:
			return nil
		}
	}
}

// sanitizeCond clears taint from every object that participates in a
// comparison inside cond: an explicit check against anything is taken
// as the bound the analyzers ask for.
func (e *taintEngine) sanitizeCond(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			e.clearTaintIn(be.X)
			e.clearTaintIn(be.Y)
		}
		return true
	})
	// A switch tag is an implicit equality comparison.
	if _, ok := cond.(*ast.BinaryExpr); !ok {
		e.clearTaintIn(cond)
	}
}

func (e *taintEngine) clearTaintIn(x ast.Expr) {
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := e.info.Uses[id]
			if obj == nil {
				obj = e.info.Defs[id]
			}
			if obj != nil {
				delete(e.tainted, obj)
			}
		}
		return true
	})
}

// taintedCondOrigin reports the origin of a tainted operand used in a
// comparison inside a loop condition (`i < n` with tainted n), which
// marks the loop as running a wire-controlled number of iterations.
func (e *taintEngine) taintedCondOrigin(cond ast.Expr) string {
	origin := ""
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := e.info.Uses[id]
			if obj == nil {
				obj = e.info.Defs[id]
			}
			if obj != nil {
				if o, ok := e.tainted[obj]; ok {
					if _, isParam := isParamOrigin(o); !isParam {
						origin = combineOrigin(origin, o)
					}
				}
			}
		}
		return true
	})
	return origin
}

// ---- expression walk ----

// expr walks x, firing sink hooks, and returns its taint origin ("" =
// clean).
func (e *taintEngine) expr(x ast.Expr) string {
	switch x := x.(type) {
	case nil:
		return ""
	case *ast.Ident:
		obj := e.info.Uses[x]
		if obj == nil {
			obj = e.info.Defs[x]
		}
		if obj != nil {
			return e.tainted[obj]
		}
		return ""
	case *ast.ParenExpr:
		return e.expr(x.X)
	case *ast.CallExpr:
		return e.call(x)
	case *ast.BinaryExpr:
		lo := e.expr(x.X)
		ro := e.expr(x.Y)
		switch x.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ,
			token.LAND, token.LOR:
			return "" // booleans carry no size
		case token.AND, token.REM:
			// x & mask and x % modulus with a constant operand are
			// bounding idioms.
			if _, isConst := constInt(e.info, x.X); isConst {
				return ""
			}
			if _, isConst := constInt(e.info, x.Y); isConst {
				return ""
			}
		}
		return combineOrigin(lo, ro)
	case *ast.UnaryExpr:
		return e.expr(x.X)
	case *ast.StarExpr:
		return e.expr(x.X)
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := e.info.Uses[id].(*types.PkgName); isPkg {
				return ""
			}
		}
		return e.expr(x.X)
	case *ast.IndexExpr:
		xo := e.expr(x.X)
		io := e.expr(x.Index)
		if io != "" {
			e.fireIndex(x.Index.Pos(), x.X, io)
		}
		return combineOrigin(xo, io)
	case *ast.IndexListExpr:
		return e.expr(x.X)
	case *ast.SliceExpr:
		xo := e.expr(x.X)
		for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
			if b == nil {
				continue
			}
			if bo := e.expr(b); bo != "" {
				e.fireIndex(b.Pos(), x.X, bo)
			}
		}
		return xo
	case *ast.CompositeLit:
		origin := ""
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			origin = combineOrigin(origin, e.expr(elt))
		}
		return origin
	case *ast.TypeAssertExpr:
		return e.expr(x.X)
	case *ast.FuncLit:
		e.flow.stmts(x.Body.List)
		return ""
	}
	return ""
}

// fireIndex reports a tainted index/slice bound unless the indexed
// container is a map (map reads cannot panic or allocate).
func (e *taintEngine) fireIndex(pos token.Pos, container ast.Expr, origin string) {
	if e.hooks == nil || e.hooks.index == nil {
		return
	}
	if _, isParam := isParamOrigin(origin); isParam {
		return
	}
	if tv, ok := e.info.Types[container]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return
		}
	}
	e.hooks.index(pos, origin)
}

func (e *taintEngine) call(call *ast.CallExpr) string {
	// Conversions propagate their operand's taint: int(rd.u32()) is
	// just as untrusted as the u32.
	if tv, ok := e.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return e.expr(call.Args[0])
		}
		return ""
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := e.info.Uses[id].(*types.Builtin); ok {
			return e.builtinCall(b.Name(), call)
		}
	}
	callee := calleeFunc(e.info, call)

	// io read bounds get a custom walk so slice-bound taint is seen
	// in context.
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "io" {
		switch callee.Name() {
		case "ReadFull", "ReadAtLeast":
			if o := e.handleIOReadBuf(call); o != "" {
				return ""
			}
			return ""
		case "CopyN":
			for i, a := range call.Args {
				o := e.expr(a)
				if i == 2 && o != "" {
					e.fireReadBound(a.Pos(), "io.CopyN byte count", o)
				}
			}
			return ""
		}
	}

	// Generic argument walk with per-argument origins.
	origins := make([]string, len(call.Args))
	for i, a := range call.Args {
		origins[i] = e.expr(a)
	}

	if callee == nil {
		return ""
	}

	// binary.Read writes wire bytes through its data pointer.
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "encoding/binary" && callee.Name() == "Read" && len(call.Args) == 3 {
		e.taintPointee(call.Args[2], "encoding/binary.Read")
		return ""
	}

	if origin, ok := wireSource(callee); ok {
		return origin
	}

	// Summarized callees.
	if f, ok := e.facts.Import(callee, "taint.ptrargs"); ok {
		fact := f.(*TaintsPtrArgsFact)
		for _, idx := range fact.Params {
			for _, a := range e.argsForParam(callee, call, idx) {
				e.taintPointee(a, viaOrigin(fact.Origin, callee.Name()))
			}
		}
	}
	if f, ok := e.facts.Import(callee, "taint.paramalloc"); ok {
		fact := f.(*ParamAllocFact)
		for _, idx := range fact.Params {
			for _, a := range e.argsForParam(callee, call, idx) {
				if i := argIndex(call, a); i >= 0 && origins[i] != "" {
					if pi, isParam := isParamOrigin(origins[i]); isParam {
						e.allocParams[pi] = true
					} else if e.hooks != nil && e.hooks.paramAlloc != nil {
						e.hooks.paramAlloc(a.Pos(), callee, origins[i])
					}
				}
			}
		}
	}
	if f, ok := e.facts.Import(callee, "taint.result"); ok {
		fact := f.(*UntrustedResultFact)
		return viaOrigin(fact.Origin, callee.Name())
	}
	return ""
}

func argIndex(call *ast.CallExpr, a ast.Expr) int {
	for i, arg := range call.Args {
		if arg == a {
			return i
		}
	}
	return -1
}

// argsForParam maps a callee parameter index to the call arguments
// that feed it, folding the variadic tail.
func (e *taintEngine) argsForParam(callee *types.Func, call *ast.CallExpr, idx int) []ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	n := sig.Params().Len()
	if sig.Variadic() && idx == n-1 {
		if len(call.Args) < n {
			return nil
		}
		return call.Args[n-1:]
	}
	if idx < len(call.Args) {
		return call.Args[idx : idx+1]
	}
	return nil
}

// taintPointee taints the object behind a pointer argument (&x or a
// pointer-typed variable), recording a ptr-param summary when the
// pointer itself derives from a parameter.
func (e *taintEngine) taintPointee(a ast.Expr, origin string) {
	root := e.rootObj(a)
	if root == nil {
		return
	}
	if prev, ok := e.tainted[root]; ok {
		if idx, isParam := isParamOrigin(prev); isParam {
			e.ptrParams[idx] = combineOrigin(e.ptrParams[idx], origin)
			return
		}
	}
	if idx, isParam := e.paramObjs[root]; isParam {
		e.ptrParams[idx] = combineOrigin(e.ptrParams[idx], origin)
		return
	}
	e.tainted[root] = combineOrigin(e.tainted[root], origin)
}

func (e *taintEngine) builtinCall(name string, call *ast.CallExpr) string {
	switch name {
	case "make":
		for _, a := range call.Args[1:] {
			if o := e.expr(a); o != "" {
				if pi, isParam := isParamOrigin(o); isParam {
					e.allocParams[pi] = true
				} else if e.hooks != nil && e.hooks.makeSize != nil {
					e.hooks.makeSize(a.Pos(), o)
				}
			}
		}
		return ""
	case "append":
		origin := ""
		for _, a := range call.Args {
			origin = combineOrigin(origin, e.expr(a))
		}
		if len(e.loopOrigins) > 0 && e.hooks != nil && e.hooks.loopAppend != nil {
			e.hooks.loopAppend(call.Pos(), e.loopOrigins[len(e.loopOrigins)-1])
		}
		return origin
	case "len", "cap":
		// The length of an existing object is bounded by the memory
		// already backing it — reading it launders taint.
		e.expr(call.Args[0])
		return ""
	case "min":
		// min(tainted, cap) is the bounding idiom.
		for _, a := range call.Args {
			e.expr(a)
		}
		return ""
	default:
		origin := ""
		for _, a := range call.Args {
			origin = combineOrigin(origin, e.expr(a))
		}
		if name == "panic" || name == "copy" || name == "clear" || name == "delete" || name == "print" || name == "println" {
			return ""
		}
		return origin
	}
}

func (e *taintEngine) handleIOReadBuf(call *ast.CallExpr) string {
	for i, a := range call.Args {
		if i == 1 {
			if s, ok := ast.Unparen(a).(*ast.SliceExpr); ok {
				e.expr(s.X)
				for _, b := range []ast.Expr{s.Low, s.High, s.Max} {
					if b == nil {
						continue
					}
					if o := e.expr(b); o != "" {
						e.fireReadBound(b.Pos(), "io read buffer bound", o)
					}
				}
				continue
			}
		}
		e.expr(a)
	}
	return ""
}

func (e *taintEngine) fireReadBound(pos token.Pos, what, origin string) {
	if e.hooks == nil || e.hooks.readBound == nil {
		return
	}
	if _, isParam := isParamOrigin(origin); isParam {
		return
	}
	e.hooks.readBound(pos, what, origin)
}

// wireSource designates the calls whose results are untrusted wire
// bytes: encoding/binary integer reads, bitio bit reads, and huffman
// symbol decodes.
func wireSource(f *types.Func) (string, bool) {
	pkg := f.Pkg()
	if pkg == nil {
		return "", false
	}
	path, name := pkg.Path(), f.Name()
	switch {
	case path == "encoding/binary":
		if strings.HasPrefix(name, "Uint") || strings.HasPrefix(name, "ReadUvarint") || strings.HasPrefix(name, "ReadVarint") || strings.HasPrefix(name, "Varint") || strings.HasPrefix(name, "Uvarint") {
			return "encoding/binary." + name, true
		}
	case path == "bitio" || strings.HasSuffix(path, "/bitio"):
		switch name {
		case "ReadBits", "ReadBit", "Peek":
			return "bitio." + name, true
		}
	case path == "huffman" || strings.HasSuffix(path, "/huffman"):
		if strings.HasPrefix(name, "Decode") {
			return "huffman-decoded symbol (" + name + ")", true
		}
	}
	return "", false
}
