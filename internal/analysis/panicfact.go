package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// panicfact computes, for every function, whether invoking it may
// panic — an explicit panic call, a single-form type assertion, or an
// index/slice whose bound derives from untrusted input — and exports
// the result as a fact so callers in later-analyzed packages inherit
// it through the call graph. The Finish phase then reports every
// panic source reachable from an exported Decompress*/Decode* entry
// point that has no intervening recover: corrupted streams must fail
// with an error, never a crash.

// PanicSite is one potential panic source, positioned at the
// operation that would raise it.
type PanicSite struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	What string `json:"what"`
	// Via names the call chain from the fact's function down to the
	// site, empty for a site local to the function.
	Via string `json:"via,omitempty"`
}

func (s PanicSite) key() string { return fmt.Sprintf("%s:%d:%d:%s", s.File, s.Line, s.Col, s.What) }

// MayPanicFact marks a function that can panic, carrying a bounded
// sample of the reachable panic sources.
type MayPanicFact struct {
	Sources []PanicSite `json:"sources"`
}

func (*MayPanicFact) FactName() string { return "panicfact.maypanic" }

// maxPanicSites bounds the per-function source sample so deep call
// graphs stay cheap; a function over the cap still carries the fact,
// just not every site.
const maxPanicSites = 6

func init() {
	Register(&Analyzer{
		Name: "panicfact",
		Doc: "a potential panic (explicit panic call, single-form type assertion, or index/slice bound " +
			"derived from untrusted input) is reachable from an exported Decompress*/Decode* entry point " +
			"with no recover on the path; decoders of untrusted streams must fail with an error instead",
		Run:    runPanicFact,
		Finish: finishPanicFact,
	})
}

func runPanicFact(pass *Pass) error {
	type target struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var targets []target
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				targets = append(targets, target{fn, fd})
			}
		}
	}

	// Local panic sources per function.
	local := map[string][]PanicSite{}
	for _, t := range targets {
		key := FuncKey(t.fn)
		if node := pass.Graph.Node(key); node != nil && node.HasRecover {
			continue
		}
		local[key] = localPanicSites(pass, t.decl)
	}

	// Fixpoint: merge callee facts (cross-package facts are already
	// final thanks to topological unit order; the iteration handles
	// intra-package call chains and recursion).
	for round := 0; round < 6; round++ {
		changed := false
		for _, t := range targets {
			key := FuncKey(t.fn)
			node := pass.Graph.Node(key)
			if node == nil || node.HasRecover {
				continue
			}
			merged := map[string]PanicSite{}
			for _, s := range local[key] {
				merged[s.key()] = s
			}
			for _, callee := range node.Callees {
				f, ok := pass.Facts.ImportKey(callee, "panicfact.maypanic")
				if !ok {
					continue
				}
				for _, s := range f.(*MayPanicFact).Sources {
					via := calleeShortName(callee)
					if s.Via != "" {
						via += " → " + s.Via
					}
					if len(via) > 120 {
						via = via[:120]
					}
					ns := s
					ns.Via = via
					if _, dup := merged[ns.key()]; !dup {
						merged[ns.key()] = ns
					}
				}
			}
			if len(merged) == 0 {
				continue
			}
			sites := make([]PanicSite, 0, len(merged))
			for _, s := range merged {
				sites = append(sites, s)
			}
			sortPanicSites(sites)
			if len(sites) > maxPanicSites {
				sites = sites[:maxPanicSites]
			}
			fact := &MayPanicFact{Sources: sites}
			if exportOrWithdraw(pass.Facts, key, true, fact) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// localPanicSites collects the panic sources inside one declaration.
func localPanicSites(pass *Pass, decl *ast.FuncDecl) []PanicSite {
	var sites []PanicSite
	addSite := func(pos token.Pos, what string) {
		p := pass.Fset.Position(pos)
		sites = append(sites, PanicSite{File: p.Filename, Line: p.Line, Col: p.Column, What: what})
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" && isBuiltin(pass.Info, id) {
				addSite(n.Pos(), "explicit panic")
			}
		case *ast.TypeAssertExpr:
			if n.Type == nil {
				return true // type switch
			}
			if tv, ok := pass.Info.Types[n]; ok {
				if _, isTuple := tv.Type.(*types.Tuple); isTuple {
					return true // comma-ok form cannot panic
				}
			}
			addSite(n.Pos(), "single-form type assertion")
		}
		return true
	})
	// Tainted index/slice bounds via the shared taint walk.
	scanTaint(pass.Info, pass.Facts, decl, &taintHooks{
		index: func(pos token.Pos, origin string) {
			addSite(pos, "index/slice bound from untrusted input ("+origin+")")
		},
	})
	sortPanicSites(sites)
	return sites
}

func sortPanicSites(sites []PanicSite) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.What != b.What {
			return a.What < b.What
		}
		return a.Via < b.Via
	})
}

// calleeShortName trims "(*pkg/path.Type).Method" or "pkg/path.Func"
// to "Type.Method" / "Func" for readable via-chains.
func calleeShortName(key string) string {
	s := strings.TrimPrefix(key, "(*")
	s = strings.TrimSuffix(strings.Replace(s, ").", ".", 1), ")")
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.Index(s, "."); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// finishPanicFact reports, after all units are analyzed, every panic
// source whose fact reached an exported decoder entry point. The
// diagnostic lands at the panic source so the fix (or waiver with its
// justification) sits next to the offending operation.
func finishPanicFact(pass *Pass) error {
	reported := map[string]bool{}
	for _, key := range pass.Graph.Keys() {
		node := pass.Graph.Node(key)
		if !isDecodeEntry(pass, node) {
			continue
		}
		f, ok := pass.Facts.ImportKey(key, "panicfact.maypanic")
		if !ok {
			continue
		}
		for _, s := range f.(*MayPanicFact).Sources {
			if reported[s.key()] {
				continue
			}
			reported[s.key()] = true
			via := ""
			if s.Via != "" {
				via = " (via " + s.Via + ")"
			}
			pass.ReportAt(token.Position{Filename: s.File, Line: s.Line, Column: s.Col},
				"possible panic (%s) is reachable from exported decoder %s%s without an intervening recover",
				s.What, node.Name, via)
		}
	}
	return nil
}

// isDecodeEntry recognizes the exported decoder entry points: a
// module-local top-level function (not a method) whose name starts
// with Decompress or Decode, declared outside test files.
func isDecodeEntry(pass *Pass, node *CGNode) bool {
	if node == nil || !node.HasDecl || node.HasRecover {
		return false
	}
	if !node.Exported || node.IsMethod || node.TestFile {
		return false
	}
	return strings.HasPrefix(node.Name, "Decompress") || strings.HasPrefix(node.Name, "Decode")
}
