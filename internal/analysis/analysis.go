// Package analysis is a self-contained static-analysis framework for
// this repository, modeled on the x/tools go/analysis pass shape but
// built only on the standard library (go/ast, go/parser, go/types,
// go/token). It powers cmd/arcvet.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics. The driver (Run) loads packages, executes every
// registered analyzer, and filters findings through the inline
// suppression syntax:
//
//	//arcvet:ignore <analyzer> [justification]
//
// placed either on the offending line or on the line directly above
// it. Suppressions must name the analyzer they silence; a bare
// "//arcvet:ignore" is deliberately rejected so blanket waivers do
// not accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pass carries everything one analyzer run on one package may use.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path of the package under analysis; test
	// packages keep their ".test" suffix-free path with test files
	// merged in.
	PkgPath string
	// Facts is the run-wide fact store. Units are analyzed in
	// topological import order, so facts exported while analyzing a
	// dependency are visible here when its dependents run.
	Facts *FactStore
	// Graph is the whole-repo call graph over every loaded unit.
	Graph *CallGraph

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a diagnostic at an already-resolved position. The
// Finish phase reports from serialized facts, which carry positions
// as file/line/column rather than token.Pos.
func (p *Pass) ReportAt(position token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Packages, when non-empty, restricts the analyzer to packages
	// whose import path contains any of the listed substrings. An
	// empty list means "run everywhere".
	Packages []string
	Run      func(*Pass) error
	// Finish, when set, runs once after every unit has been analyzed,
	// with the complete fact store and call graph. The Pass carries
	// no files or type info — Finish is for whole-repo conclusions
	// (e.g. reachability over exported facts).
	Finish func(*Pass) error
}

// AppliesTo reports whether the analyzer examines the given package.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, sub := range a.Packages {
		if strings.Contains(pkgPath, sub) {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, locatable and attributable.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`

	// Flattened position fields for -format json output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders the conventional file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// registry holds the built-in analyzers in registration order.
var registry []*Analyzer

// Register adds an analyzer to the default set. It panics on a
// duplicate name — names are the suppression keys, so they must be
// unambiguous.
func Register(a *Analyzer) {
	for _, ex := range registry {
		if ex.Name == a.Name {
			panic("analysis: duplicate analyzer " + a.Name)
		}
	}
	registry = append(registry, a)
}

// All returns the registered analyzers sorted by name.
func All() []*Analyzer {
	out := append([]*Analyzer(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName resolves a comma-separated analyzer list; unknown names are
// an error so typos in -analyzers do not silently skip checks.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			var valid []string
			for _, a := range All() {
				valid = append(valid, a.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (valid analyzers: %s)", name, strings.Join(valid, ", "))
		}
	}
	return out, nil
}
