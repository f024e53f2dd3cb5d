package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CGNode is one function in the whole-repo call graph. Calls made
// inside function literals are attributed to the enclosing declared
// function — the graph tracks "what can run when X is invoked", and a
// literal's body only runs via its host (directly or as a goroutine
// it spawns).
type CGNode struct {
	Key string // FuncKey of the function
	// HasDecl marks a node whose declaration was seen in a loaded
	// unit (false for nodes only ever seen as callees);
	// Name/Exported/IsMethod/TestFile are only meaningful then.
	HasDecl  bool
	Name     string
	Exported bool
	IsMethod bool
	TestFile bool
	// Position is the resolved declaration position (zero for
	// callee-only nodes).
	Position token.Position
	// HasRecover marks a function with a top-level deferred recover:
	// panics raised anywhere below it are absorbed, so panic facts
	// must not propagate through it.
	HasRecover bool
	// Callees and Callers are sorted FuncKeys. Abstract interface
	// methods appear as their own nodes with CHA edges to every
	// module-local concrete implementation.
	Callees []string
	Callers []string

	callees map[string]bool
}

// CallGraph indexes CGNodes by FuncKey.
type CallGraph struct {
	nodes map[string]*CGNode
}

// Node returns the graph node for key, or nil.
func (g *CallGraph) Node(key string) *CGNode { return g.nodes[key] }

// Keys returns every node key, sorted.
func (g *CallGraph) Keys() []string {
	out := make([]string, 0, len(g.nodes))
	for k := range g.nodes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (g *CallGraph) node(key string) *CGNode {
	n := g.nodes[key]
	if n == nil {
		n = &CGNode{Key: key, callees: map[string]bool{}}
		g.nodes[key] = n
	}
	return n
}

func (g *CallGraph) edge(from, to string) {
	n := g.node(from)
	if !n.callees[to] {
		n.callees[to] = true
	}
	g.node(to)
}

// addUnit collects one unit's declarations and call edges into g.
// Interface method calls get class-hierarchy edges: an abstract
// method node links to the matching method of every type in concrete
// that implements the interface, so panic and taint facts flow
// through dynamic dispatch instead of vanishing at it.
func (g *CallGraph) addUnit(fset *token.FileSet, unit *Unit, concrete []types.Type) {
	type ifaceCall struct {
		iface  *types.Interface
		method *types.Func
	}
	var abstract []ifaceCall
	seenAbstract := map[string]bool{}

	for _, file := range unit.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := unit.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			caller := FuncKey(fn)
			node := g.node(caller)
			node.HasDecl = true
			node.Name = fn.Name()
			node.Exported = fn.Exported()
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				node.IsMethod = true
			}
			node.Position = fset.Position(fd.Pos())
			node.TestFile = strings.HasSuffix(node.Position.Filename, "_test.go")
			node.HasRecover = hasRecoverGuard(unit.Info, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(unit.Info, call)
				if callee == nil {
					return true
				}
				key := FuncKey(callee)
				g.edge(caller, key)
				if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
					if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok && !seenAbstract[key] {
						seenAbstract[key] = true
						abstract = append(abstract, ifaceCall{iface, callee})
					}
				}
				return true
			})
		}
	}

	// CHA: resolve each abstract method against the collected types.
	for _, ac := range abstract {
		for _, t := range concrete {
			for _, recv := range []types.Type{t, types.NewPointer(t)} {
				if types.IsInterface(recv.Underlying()) || !types.Implements(recv, ac.iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(recv, true, ac.method.Pkg(), ac.method.Name())
				if m, ok := obj.(*types.Func); ok {
					g.edge(FuncKey(ac.method), FuncKey(m))
				}
				break
			}
		}
	}
}

// finalize freezes the edge maps into sorted Callees lists and
// computes the Callers back-edges. The driver calls it after each
// unit, so analyzers see the graph of everything loaded so far.
func (g *CallGraph) finalize() {
	for _, n := range g.nodes {
		n.Callees = make([]string, 0, len(n.callees))
		for k := range n.callees {
			n.Callees = append(n.Callees, k)
		}
		sort.Strings(n.Callees)
		n.Callers = nil
	}
	for _, key := range g.Keys() {
		for _, callee := range g.nodes[key].Callees {
			g.nodes[callee].Callers = append(g.nodes[callee].Callers, key)
		}
	}
	for _, n := range g.nodes {
		sort.Strings(n.Callers)
	}
}

// hasRecoverGuard reports whether body defers a call that invokes
// recover, i.e. the function absorbs panics from everything below it.
func hasRecoverGuard(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(def.Call.Fun).(*ast.FuncLit); ok {
			if callsRecover(info, lit.Body) {
				found = true
			}
		}
		if id, ok := ast.Unparen(def.Call.Fun).(*ast.Ident); ok && id.Name == "recover" && isBuiltin(info, id) {
			found = true
		}
		return true
	})
	return found
}

// callsRecover reports a direct recover() call inside body (not
// nested in a further function literal).
func callsRecover(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" && isBuiltin(info, id) {
				found = true
			}
		}
		return true
	})
	return found
}

// isBuiltin reports whether the identifier resolves to a universe
// builtin (and not a shadowing declaration).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}
