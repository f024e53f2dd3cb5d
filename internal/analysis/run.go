package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Result is the outcome of analyzing a set of directories.
type Result struct {
	Diagnostics []Diagnostic
	// Packages counts the units (including external test packages)
	// that were loaded and checked.
	Packages int
	// Facts is the run's fact store, exposed for tests and debugging.
	Facts *FactStore
	// Graph is the whole-repo call graph.
	Graph *CallGraph
}

// Run loads every directory, orders units topologically by import
// dependency, and unit by unit builds the call graph and taint
// summaries and applies the given analyzers; then it runs each
// analyzer's Finish phase over the accumulated facts. It returns
// position-sorted, suppression-filtered diagnostics. waiverCheck also
// reports //arcvet:ignore directives that suppressed nothing; it needs
// the full analyzer set — with a subset, waivers for the analyzers not
// run would read as stale.
func Run(loader *Loader, dirs []string, analyzers []*Analyzer, waiverCheck bool) (*Result, error) {
	res := &Result{Facts: NewFactStore(), Graph: &CallGraph{nodes: map[string]*CGNode{}}}

	var units []*Unit
	for _, dir := range dirs {
		loaded, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, loaded...)
	}
	units = topoSort(units)
	res.Packages = len(units)

	// The pool of concrete types interface calls resolve against:
	// every unit's package scope plus every dependency package the
	// loader type-checked.
	var concrete []types.Type
	for _, u := range units {
		concrete = append(concrete, scopeTypes(u.Pkg)...)
	}
	for _, pkg := range loader.deps {
		concrete = append(concrete, scopeTypes(pkg)...)
	}

	sup := suppressions{}
	spans := stmtSpans{}
	var waivers []waiver
	var diags []Diagnostic // malformed directives, which no waiver silences
	var raw []Diagnostic   // analyzer findings before suppression

	for _, unit := range units {
		recs, bad := collectSuppressions(loader, unit.Files)
		for _, r := range recs {
			sup.add(r)
		}
		waivers = append(waivers, recs...)
		spans.collect(loader.Fset, unit.Files)
		diags = append(diags, bad...)

		summarizeUnitTaint(loader.Fset, unit, res.Facts)
		res.Graph.addUnit(loader.Fset, unit, concrete)
		res.Graph.finalize()

		for _, a := range analyzers {
			if !a.AppliesTo(unit.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     loader.Fset,
				Files:    unit.Files,
				Pkg:      unit.Pkg,
				Info:     unit.Info,
				PkgPath:  unit.Path,
				Facts:    res.Facts,
				Graph:    res.Graph,
				diags:    &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, unit.Path, err)
			}
		}
	}

	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     loader.Fset,
			Facts:    res.Facts,
			Graph:    res.Graph,
			diags:    &raw,
		}
		if err := a.Finish(pass); err != nil {
			return nil, fmt.Errorf("%s finish: %w", a.Name, err)
		}
	}

	used := map[waiver]bool{}
	for _, d := range raw {
		if !sup.matches(d, spans, used) {
			diags = append(diags, d)
		}
	}
	if waiverCheck {
		for _, r := range waivers {
			if used[r] {
				continue
			}
			used[r] = true // one report per directive
			diags = append(diags, Diagnostic{
				Analyzer: "waivercheck",
				Pos:      token.Position{Filename: r.File, Line: r.Line, Column: 1},
				Message:  fmt.Sprintf("arcvet:ignore %s suppresses nothing here; remove the stale waiver", r.Analyzer),
			})
		}
	}

	for i := range diags {
		d := &diags[i]
		d.File, d.Line, d.Col = d.Pos.Filename, d.Pos.Line, d.Pos.Column
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	res.Diagnostics = diags
	return res, nil
}

// scopeTypes collects the named types declared at package scope.
func scopeTypes(pkg *types.Package) []types.Type {
	var out []types.Type
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			out = append(out, tn.Type())
		}
	}
	return out
}

// topoSort orders units so every unit follows the units it imports
// (Kahn's algorithm; ties break on import path so the order is
// deterministic). External test units depend on their base unit.
func topoSort(units []*Unit) []*Unit {
	index := map[string]int{}
	for i, u := range units {
		index[u.Path] = i
	}
	indeg := make([]int, len(units))
	dependents := make([][]int, len(units))
	addEdge := func(from, to int) { // from depends on to
		dependents[to] = append(dependents[to], from)
		indeg[from]++
	}
	for i, u := range units {
		for _, imp := range u.Pkg.Imports() {
			if j, ok := index[imp.Path()]; ok && j != i {
				addEdge(i, j)
			}
		}
		if base, ok := strings.CutSuffix(u.Path, "_test"); ok {
			if j, ok := index[base]; ok && j != i {
				addEdge(i, j)
			}
		}
	}
	var ready []int
	for i := range units {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	byPath := func(a, b int) bool { return units[a].Path < units[b].Path }
	sort.Slice(ready, func(i, j int) bool { return byPath(ready[i], ready[j]) })
	var order []*Unit
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, units[i])
		released := false
		for _, dep := range dependents[i] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
				released = true
			}
		}
		if released {
			sort.Slice(ready, func(a, b int) bool { return byPath(ready[a], ready[b]) })
		}
	}
	// Import cycles cannot occur in compiled Go; if something slipped
	// through, keep the leftovers rather than dropping units.
	if len(order) < len(units) {
		seen := map[*Unit]bool{}
		for _, u := range order {
			seen[u] = true
		}
		for _, u := range units {
			if !seen[u] {
				order = append(order, u)
			}
		}
	}
	return order
}

// stmtSpans indexes, per file, the line spans of every multi-line
// statement (and top-level declaration) so a waiver directive
// anchored to the first line of a multi-line statement covers
// findings on its continuation lines.
type stmtSpans map[string][]lineSpan

type lineSpan struct{ start, end int }

func (ss stmtSpans) collect(fset *token.FileSet, files []*ast.File) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, *ast.GenDecl, *ast.ValueSpec:
				start := fset.Position(n.Pos())
				end := fset.Position(n.End())
				if end.Line > start.Line {
					ss[start.Filename] = append(ss[start.Filename], lineSpan{start.Line, end.Line})
				}
			}
			return true
		})
	}
}

// stmtStart returns the first line of the innermost multi-line
// statement covering (file, line), or 0 when the line is not inside
// one. "Innermost" keeps a directive on an assignment from waiving an
// entire enclosing block.
func (ss stmtSpans) stmtStart(file string, line int) int {
	best := lineSpan{}
	found := false
	for _, sp := range ss[file] {
		if line < sp.start || line > sp.end {
			continue
		}
		if !found || sp.end-sp.start < best.end-best.start ||
			(sp.end-sp.start == best.end-best.start && sp.start > best.start) {
			best, found = sp, true
		}
	}
	if !found {
		return 0
	}
	return best.start
}

// suppressions maps file -> line -> analyzer names silenced there. A
// finding is silenced when an ignore directive sits on its line, on
// the line directly above, or — for findings inside a multi-line
// statement — on the statement's first line or the line above that.
type suppressions map[string]map[int]map[string]bool

// waiver is one //arcvet:ignore directive occurrence.
type waiver struct {
	File     string
	Line     int
	Analyzer string
}

func (s suppressions) add(r waiver) {
	if s[r.File] == nil {
		s[r.File] = map[int]map[string]bool{}
	}
	if s[r.File][r.Line] == nil {
		s[r.File][r.Line] = map[string]bool{}
	}
	s[r.File][r.Line][r.Analyzer] = true
}

// matches reports whether d is suppressed; a match also marks the
// matching directive as used so -waivercheck can report the
// directives that matched nothing.
func (s suppressions) matches(d Diagnostic, spans stmtSpans, used map[waiver]bool) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	candidates := []int{d.Pos.Line, d.Pos.Line - 1}
	if start := spans.stmtStart(d.Pos.Filename, d.Pos.Line); start > 0 && start != d.Pos.Line {
		candidates = append(candidates, start, start-1)
	}
	for _, line := range candidates {
		if lines[line][d.Analyzer] {
			used[waiver{d.Pos.Filename, line, d.Analyzer}] = true
			return true
		}
	}
	return false
}

// collectSuppressions scans comments for //arcvet:ignore directives,
// returning the well-formed directives plus diagnostics for malformed
// ones (no analyzer named, or an unknown analyzer) so waivers stay
// auditable.
func collectSuppressions(loader *Loader, files []*ast.File) ([]waiver, []Diagnostic) {
	var recs []waiver
	var bad []Diagnostic
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "arcvet:ignore")
				if !ok {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{
						Analyzer: "arcvet",
						Pos:      pos,
						Message:  "arcvet:ignore must name the analyzer it suppresses",
					})
					continue
				}
				name := fields[0]
				if !known[name] {
					bad = append(bad, Diagnostic{
						Analyzer: "arcvet",
						Pos:      pos,
						Message:  fmt.Sprintf("arcvet:ignore names unknown analyzer %q", name),
					})
					continue
				}
				recs = append(recs, waiver{pos.Filename, pos.Line, name})
			}
		}
	}
	return recs, bad
}
