package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// integrityflow tracks the verification state of untrusted bytes and
// enforces ARC's end-to-end integrity contract: data that enters from
// storage (an abstract ReaderAt) or the wire (a frame payload) is
// "unverified" until it flows through a recognized sanitizer — a CRC
// comparison, a checked decode/parse, or a helper carrying an
// integrity.verifies fact. Unverified bytes must not escape through
// an exported API return, a service response payload, or a cache
// insert; and a computed verification result (an ecc repair Report or
// a verifier's error) must not be discarded while its siblings are
// used. Helper summaries cross package boundaries as facts:
//
//	integrity.verifies — the function verifies the bytes behind the
//	    listed parameter indices before returning without error
//	integrity.escapes  — the function's byte results are unverified
//	    (callers inherit the origin)

// VerifiesFact marks a function that verifies the byte content behind
// the listed parameters (zero-based, receiver excluded) before it
// returns without error. Callers may treat those argument roots as
// verified once they have checked the function's error.
type VerifiesFact struct {
	Params []int `json:"params"`
}

func (*VerifiesFact) FactName() string { return "integrity.verifies" }

// EscapesFact marks a function whose byte-slice results are
// unverified; Origin describes where the bytes entered.
type EscapesFact struct {
	Result bool   `json:"result"`
	Origin string `json:"origin"`
}

func (*EscapesFact) FactName() string { return "integrity.escapes" }

func init() {
	Register(&Analyzer{
		Name: "integrityflow",
		Doc: "unverified bytes from storage or the wire escape through an exported API return, a service " +
			"response payload, or a cache insert without passing a CRC comparison or checked decode; or a " +
			"verification result (repair report, verifier error) is computed and then discarded",
		Run: runIntegrityFlow,
	})
}

// verifierPrefixes are callee-name prefixes treated as sanitizers
// when the call's error result is bound and (presumably) checked.
var verifierPrefixes = []string{
	"Decode", "decode", "Unmarshal", "unmarshal", "Parse", "parse",
	"Verify", "verify", "Validate", "validate", "Check", "check",
}

func isVerifierName(name string) bool {
	for _, p := range verifierPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// checksumNames match callables whose results, compared against an
// expected value, constitute a verification of their input bytes.
var checksumNames = []string{"CRC", "Checksum", "Sum", "Digest", "Hash"}

func isChecksumName(name string) bool {
	for _, s := range checksumNames {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

const (
	storageOriginPrefix = "storage bytes"
	wireOriginPrefix    = "wire bytes"
)

// wireOrigin reports whether the origin class is wire (frame payload)
// rather than storage. Wire payloads are by-design unverified until a
// decode, so the exported-return sink only fires for storage bytes.
func wireOrigin(origin string) bool { return strings.HasPrefix(origin, wireOriginPrefix) }

func runIntegrityFlow(pass *Pass) error {
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// Summary rounds first: intra-package helper chains need a
	// fixpoint before the reporting pass consumes their facts.
	for round := 0; round < 4; round++ {
		changed := false
		for _, fd := range decls {
			e := newIntegrityEngine(pass, fd, false)
			if e != nil && e.summarize() {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fd := range decls {
		if e := newIntegrityEngine(pass, fd, true); e != nil {
			e.flow.stmts(fd.Body.List)
		}
	}
	return nil
}

// integrityEngine walks one declaration tracking which root objects
// hold unverified bytes. Verification state is per root object: once
// buf passes a CRC check, buf.b and buf[i:j] are verified too.
type integrityEngine struct {
	pass   *Pass
	fn     *types.Func
	decl   *ast.FuncDecl
	report bool

	// unverified maps a root object to the origin of its bytes;
	// verified marks roots that passed a sanitizer.
	unverified map[types.Object]string
	verified   map[types.Object]bool

	// params maps parameter objects to their index, for VerifiesFact.
	params         map[types.Object]int
	verifiedParams map[int]bool

	// escapeOrigin records the first unverified origin returned by an
	// unexported function, for EscapesFact.
	escapeOrigin string

	// cacheRet counts enclosing cache-loader function literals whose
	// return values are inserted into a cache.
	cacheRet int

	// reported dedups diagnostics: loop bodies are walked twice so
	// verification state reaches the loop head.
	reported map[string]bool

	flow *flow
}

func newIntegrityEngine(pass *Pass, fd *ast.FuncDecl, report bool) *integrityEngine {
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	e := &integrityEngine{
		pass:           pass,
		fn:             fn,
		decl:           fd,
		report:         report,
		unverified:     map[types.Object]string{},
		verified:       map[types.Object]bool{},
		params:         map[types.Object]int{},
		verifiedParams: map[int]bool{},
		reported:       map[string]bool{},
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			e.params[sig.Params().At(i)] = i
		}
	}
	e.flow = &flow{
		expr:   func(x ast.Expr) { e.expr(x) },
		cond:   e.cond,
		assign: e.assign,
		decl:   e.valueSpec,
		rng:    e.rangeHead,
		// Two passes so state reaching the loop tail feeds the head.
		loop: func(_ ast.Stmt, body func()) { body(); body() },
		ret:  e.ret,
	}
	return e
}

// summarize runs the walk in summary mode and exports or withdraws
// this function's facts, reporting whether anything changed.
func (e *integrityEngine) summarize() bool {
	e.flow.stmts(e.decl.Body.List)
	key := FuncKey(e.fn)
	changed := false

	var idx []int
	for i := range e.verifiedParams {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if exportOrWithdraw(e.pass.Facts, key, len(idx) > 0, &VerifiesFact{Params: idx}) {
		changed = true
	}

	// Exported functions report the escape directly; only unexported
	// helpers summarize it for their callers.
	escapes := e.escapeOrigin != "" && !e.fn.Exported()
	if exportOrWithdraw(e.pass.Facts, key, escapes, &EscapesFact{Result: true, Origin: e.escapeOrigin}) {
		changed = true
	}
	return changed
}

func (e *integrityEngine) reportf(pos token.Pos, format string, args ...any) {
	if !e.report {
		return
	}
	key := fmt.Sprintf("%d:%s", pos, fmt.Sprintf(format, args...))
	if e.reported[key] {
		return
	}
	e.reported[key] = true
	e.pass.Reportf(pos, format, args...)
}

func (e *integrityEngine) markUnverified(obj types.Object, origin string) {
	if obj == nil || origin == "" {
		return
	}
	delete(e.verified, obj)
	e.unverified[obj] = origin
}

func (e *integrityEngine) markVerified(obj types.Object) {
	if obj == nil {
		return
	}
	delete(e.unverified, obj)
	e.verified[obj] = true
	if i, ok := e.params[obj]; ok {
		e.verifiedParams[i] = true
	}
}

// ---- statement callbacks (the walk itself is flow.go) ----

func (e *integrityEngine) valueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			e.assignTo(name, e.expr(vs.Values[i]), vs.Values[i])
		}
	}
}

// cond evaluates a branch-deciding expression and lets a checksum
// comparison in it verify its operands. A switch tag alone compares
// nothing; its case expressions do.
func (e *integrityEngine) cond(kind condKind, x ast.Expr) {
	e.expr(x)
	if kind != condTag {
		e.condVerify(x)
	}
}

func (e *integrityEngine) rangeHead(s *ast.RangeStmt) {
	o := e.expr(s.X)
	if s.Value != nil {
		e.assignTo(s.Value, o, s.X)
	}
}

// ret handles return statements: the exported-API sink, the
// cache-insert sink (when inside a cache loader literal), and escape
// summaries for unexported helpers.
func (e *integrityEngine) ret(s *ast.ReturnStmt) {
	for _, r := range s.Results {
		o := e.expr(r)
		if o == "" || !isByteishExpr(e.pass.Info, r) {
			continue
		}
		if e.cacheRet > 0 {
			e.reportf(r.Pos(), "unverified %s inserted into cache; verify integrity before caching", o)
			continue
		}
		if e.fn.Exported() && !wireOrigin(o) {
			e.reportf(r.Pos(), "unverified %s returned from exported %s; verify (CRC compare or checked decode) before returning", o, e.fn.Name())
		}
		if e.escapeOrigin == "" {
			e.escapeOrigin = o
		}
	}
}

// assign handles the verifier/drop logic for call assignments, the
// response-payload sink, and plain propagation.
func (e *integrityEngine) assign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			e.callAssign(s, call)
			return
		}
	}
	for i, rhs := range s.Rhs {
		o := e.expr(rhs)
		if i < len(s.Lhs) {
			e.assignTo(s.Lhs[i], o, rhs)
		}
	}
}

// callAssign processes `lhs... := call(...)`: discarded verification
// results, verifier sanitization, and escape-fact propagation.
func (e *integrityEngine) callAssign(s *ast.AssignStmt, call *ast.CallExpr) {
	o := e.expr(call) // walks args, applies sources/sinks inside
	callee := calleeFunc(e.pass.Info, call)
	if callee == nil {
		for _, lhs := range s.Lhs {
			e.assignTo(lhs, o, call)
		}
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	results := sig.Results()

	// Discarded verification results. Only multi-result assignments
	// with at least one used value count: a lone `_ = f()` is an
	// explicit opt-out, and `f()` alone is uncheckederr's business.
	if e.report && len(s.Lhs) >= 2 && len(s.Lhs) == results.Len() && hasNonBlank(s.Lhs) {
		for i := 0; i < results.Len(); i++ {
			if !isBlank(s.Lhs[i]) {
				continue
			}
			rt := results.At(i).Type()
			if named, ok := derefType(rt).(*types.Named); ok && named.Obj().Name() == "Report" {
				e.reportf(s.Lhs[i].Pos(), "repair report from %s is discarded; silent-correction counts must be surfaced or the discard waived with a justification", callee.Name())
			} else if isErrorType(rt) && isVerifierName(callee.Name()) {
				e.reportf(s.Lhs[i].Pos(), "error from verifier %s is discarded while its other results are used; a failed verification must not go unnoticed", callee.Name())
			}
		}
	}

	// Sanitization: a verifier whose error result is bound (or that
	// has no error result) verifies its byte-slice arguments' roots.
	errIdx := -1
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			errIdx = i
			break
		}
	}
	errBound := errIdx < 0 || (errIdx < len(s.Lhs) && !isBlank(s.Lhs[errIdx]))
	if errBound {
		if f, ok := e.pass.Facts.ImportKey(FuncKey(callee), "integrity.verifies"); ok {
			for _, p := range f.(*VerifiesFact).Params {
				if p < len(call.Args) {
					e.markVerified(rootObjOf(e.pass.Info, call.Args[p]))
				}
			}
			o = ""
		} else if isVerifierName(callee.Name()) {
			for _, a := range call.Args {
				if isByteishExpr(e.pass.Info, a) {
					e.markVerified(rootObjOf(e.pass.Info, a))
				}
			}
			o = ""
		}
	}
	for _, lhs := range s.Lhs {
		e.assignTo(lhs, o, call)
	}
}

// assignTo records origin o flowing into the lhs expression. rhs is
// the source expression, used for the byte-ish gate at sinks.
func (e *integrityEngine) assignTo(lhs ast.Expr, o string, rhs ast.Expr) {
	if isBlank(lhs) {
		return
	}
	// Response-payload sink: resp.payload = <unverified bytes>.
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && o != "" && isByteishExpr(e.pass.Info, rhs) {
		if strings.EqualFold(sel.Sel.Name, "payload") {
			if tn := namedTypeName(e.pass.Info, sel.X); strings.Contains(strings.ToLower(tn), "response") {
				e.reportf(lhs.Pos(), "unverified %s assigned to %s payload; verify integrity before building the response", o, tn)
			}
		}
	}
	root := rootObjOf(e.pass.Info, lhs)
	if root == nil {
		return
	}
	if o != "" {
		e.markUnverified(root, o)
	} else if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		// A whole-variable overwrite with clean data resets state;
		// partial writes (buf[i] = x) keep the root's prior state.
		delete(e.unverified, root)
		delete(e.verified, root)
	}
}

// condVerify scans a condition for CRC/checksum comparisons: a
// `computed == expected` (or !=) where one side calls a checksum
// function verifies that call's byte arguments.
func (e *integrityEngine) condVerify(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ast.Inspect(side, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(e.pass.Info, call)
				if callee == nil || !isChecksumName(callee.Name()) {
					return true
				}
				for _, a := range call.Args {
					if isByteishExpr(e.pass.Info, a) {
						e.markVerified(rootObjOf(e.pass.Info, a))
					}
				}
				return true
			})
		}
		return true
	})
}

// ---- expression walk ----

// expr walks x and returns the origin of the unverified bytes it
// evaluates to ("" when clean or not byte-carrying).
func (e *integrityEngine) expr(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		if obj := e.pass.Info.Uses[x]; obj != nil {
			return e.unverified[obj]
		}
		return ""
	case *ast.SelectorExpr:
		if o := e.frameSource(x); o != "" {
			return o
		}
		return e.expr(x.X)
	case *ast.IndexExpr:
		e.expr(x.Index)
		return e.expr(x.X)
	case *ast.SliceExpr:
		for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
			if b != nil {
				e.expr(b)
			}
		}
		return e.expr(x.X)
	case *ast.StarExpr:
		return e.expr(x.X)
	case *ast.UnaryExpr:
		return e.expr(x.X)
	case *ast.BinaryExpr:
		a := e.expr(x.X)
		b := e.expr(x.Y)
		if a != "" {
			return a
		}
		return b
	case *ast.CallExpr:
		return e.call(x)
	case *ast.CompositeLit:
		var origin string
		for _, el := range x.Elts {
			var o string
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				o = e.expr(kv.Value)
			} else {
				o = e.expr(el)
			}
			if origin == "" {
				origin = o
			}
		}
		return origin
	case *ast.KeyValueExpr:
		return e.expr(x.Value)
	case *ast.TypeAssertExpr:
		return e.expr(x.X)
	case *ast.FuncLit:
		// A literal not attached to a cache insert: analyze its body
		// with the cache sink disabled.
		saved := e.cacheRet
		e.cacheRet = 0
		e.flow.stmts(x.Body.List)
		e.cacheRet = saved
		return ""
	}
	return ""
}

// call handles sources (abstract ReadAt), sinks (cache inserts), and
// propagation through escape facts and builtins.
func (e *integrityEngine) call(call *ast.CallExpr) string {
	// Builtins first: copy propagates, append/conversion combine.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isBuiltin(e.pass.Info, id) {
		switch id.Name {
		case "copy":
			if len(call.Args) == 2 {
				if o := e.expr(call.Args[1]); o != "" {
					e.markUnverified(rootObjOf(e.pass.Info, call.Args[0]), o)
				}
				e.expr(call.Args[0])
			}
			return ""
		case "append":
			var origin string
			for _, a := range call.Args {
				if o := e.expr(a); origin == "" {
					origin = o
				}
			}
			return origin
		default:
			for _, a := range call.Args {
				e.expr(a)
			}
			return ""
		}
	}

	// Type conversion []byte(x) etc: propagate the operand.
	if tv, ok := e.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return e.expr(call.Args[0])
	}

	callee := calleeFunc(e.pass.Info, call)

	// Cache-insert sink: literals passed to GetOrLoad have their
	// return values inserted; direct byte args to cache mutators too.
	if callee != nil && e.isCacheInsert(callee, call) {
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				e.cacheRet++
				e.flow.stmts(lit.Body.List)
				e.cacheRet--
				continue
			}
			o := e.expr(a)
			if o != "" && isByteishExpr(e.pass.Info, a) {
				e.reportf(a.Pos(), "unverified %s inserted into cache; verify integrity before caching", o)
			}
		}
		return ""
	}

	for _, a := range call.Args {
		e.expr(a)
	}

	// Source: ReadAt through an interface fills its buffer with
	// unverified storage bytes. Concrete ReadAt implementations (e.g.
	// *RangeReader) verify internally and are not sources.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "ReadAt" && len(call.Args) == 2 {
		if tv, ok := e.pass.Info.Types[sel.X]; ok && tv.Type != nil && types.IsInterface(tv.Type) {
			e.markUnverified(rootObjOf(e.pass.Info, call.Args[0]),
				storageOriginPrefix+" read via ReaderAt.ReadAt")
		}
	}

	if callee != nil {
		if f, ok := e.pass.Facts.ImportKey(FuncKey(callee), "integrity.escapes"); ok {
			ef := f.(*EscapesFact)
			if ef.Result {
				return fmt.Sprintf("%s (via %s)", ef.Origin, callee.Name())
			}
		}
	}
	return ""
}

// frameSource recognizes `f.Payload` on a wire Frame as a wire-class
// source.
func (e *integrityEngine) frameSource(sel *ast.SelectorExpr) string {
	if sel.Sel.Name != "Payload" {
		return ""
	}
	if namedTypeName(e.pass.Info, sel.X) == "Frame" {
		return wireOriginPrefix + " from frame payload"
	}
	return ""
}

// isCacheInsert recognizes calls that place bytes into a cache: a
// GetOrLoad-style loader, or Add/Put/Insert/Store on a *Cache* type.
func (e *integrityEngine) isCacheInsert(callee *types.Func, call *ast.CallExpr) bool {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	if callee.Name() == "GetOrLoad" {
		return true
	}
	switch callee.Name() {
	case "Add", "Put", "Insert", "Store":
		return strings.Contains(derefTypeName(sig.Recv().Type()), "Cache")
	}
	return false
}

// ---- small type helpers ----

func isBlank(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && id.Name == "_"
}

func hasNonBlank(list []ast.Expr) bool {
	for _, x := range list {
		if !isBlank(x) {
			return true
		}
	}
	return false
}

// isByteishExpr reports whether x's static type is a byte slice (or
// named byte-slice type).
func isByteishExpr(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// derefTypeName returns the named type's name behind t (through one
// pointer), or "".
func derefTypeName(t types.Type) string {
	if named, ok := derefType(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// namedTypeName resolves the named type behind expression x (through
// pointers), or "".
func namedTypeName(info *types.Info, x ast.Expr) string {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return ""
	}
	return derefTypeName(tv.Type)
}
