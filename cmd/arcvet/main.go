// Command arcvet runs this repository's static-analysis suite:
// fourteen repo-specific analyzers over type-checked packages, built
// entirely on the standard library (see internal/analysis and
// docs/STATIC_ANALYSIS.md). Packages are analyzed in topological
// import order, so facts exported about a dependency's functions
// (may-panic, taint summaries, lock and channel effects) are visible
// while analyzing its dependents. It runs after `go vet`, which owns
// the checks it would otherwise duplicate (copied locks, constant
// over-shifts).
//
// Usage:
//
//	arcvet [-format text|json] [-analyzers a,b] [-list] [-waivercheck] [packages...]
//
// Package patterns are directories relative to the module root, with
// "./..." (the default) expanding recursively. Findings print as
// file:line:col: [analyzer] message, sorted by (file, line, col,
// analyzer) across all packages; -format json emits the same ordering
// as a machine-readable array. -analyzers restricts the run to a
// comma-separated subset. Exit status is 0 when clean, 1 when findings
// are reported, and 2 on usage or load errors.
//
// -waivercheck additionally reports //arcvet:ignore directives that
// suppressed nothing; it requires the full analyzer set, since a
// subset run would misread waivers for the skipped analyzers as stale.
//
// Individual findings are waived inline with
//
//	//arcvet:ignore <analyzer> <justification>
//
// on the offending line, the line directly above it, or — when the
// finding sits on a continuation line of a multi-line statement — the
// statement's first line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// say writes a line, explicitly discarding the write error: arcvet's
// own output failing (closed pipe, full disk) must not change its
// verdict, and the exit code is the contract.
func say(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or json")
	names := fs.String("analyzers", "", "comma-separated analyzers to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	waiverCheck := fs.Bool("waivercheck", false, "report stale //arcvet:ignore directives (requires the full analyzer set)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			say(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *format != "text" && *format != "json" {
		say(stderr, "arcvet: unknown format %q (want text or json)\n", *format)
		return 2
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	if *waiverCheck && *names != "" {
		say(stderr, "arcvet: -waivercheck requires the full analyzer set; drop -analyzers\n")
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	dirs, err := analysis.ExpandPatterns(cwd, fs.Args())
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	res, err := analysis.Run(loader, dirs, analyzers, *waiverCheck)
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if res.Diagnostics == nil {
			res.Diagnostics = []analysis.Diagnostic{}
		}
		if err := enc.Encode(res.Diagnostics); err != nil {
			say(stderr, "arcvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range res.Diagnostics {
			say(stdout, "%s\n", d)
		}
		say(stderr, "arcvet: %d package(s), %d finding(s)\n", res.Packages, len(res.Diagnostics))
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}
