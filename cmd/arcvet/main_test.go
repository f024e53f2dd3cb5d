package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"unknown analyzer", []string{"-analyzers", "mutexcopy"}, 2},
		{"unknown analyzers flag value", []string{"-analyzers", "nosuch"}, 2},
		{"unknown flag", []string{"-bogus"}, 2},
		{"unknown format", []string{"-format", "xml"}, 2},
		{"waivercheck with subset", []string{"-waivercheck", "-analyzers", "bitwidth", "."}, 2},
		// Flags and formats that are gone are usage errors, not
		// silently accepted spellings.
		{"self sarif", []string{"-format", "sarif", "-analyzers", "lockorder,chansafety,ctxflow", "."}, 2},
		{"json conflicts with sarif", []string{"-json", "-format", "sarif"}, 2},
		{"json shorthand", []string{"-json", "."}, 2},
		{"only and analyzers disagree", []string{"-only", "bitwidth", "-analyzers", "deadwait"}, 2},
		{"waivercheck with only", []string{"-waivercheck", "-only", "bitwidth", "."}, 2},
		{"cache dir", []string{"-cache-dir", "/tmp/x", "."}, 2},
		{"timing", []string{"-timing", "/tmp/x.json", "."}, 2},
		// The driver's own directory must be clean, via both renderers.
		{"self text", []string{"-analyzers", "uncheckederr", "."}, 0},
		{"self json", []string{"-format", "json", "-analyzers", "bitwidth", "."}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args, io.Discard, io.Discard); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestUnknownAnalyzerListsValidNames pins the -analyzers typo
// experience: the error must exit 2 and name every valid analyzer so
// the fix does not require a second -list invocation.
func TestUnknownAnalyzerListsValidNames(t *testing.T) {
	var errOut bytes.Buffer
	if got := run([]string{"-analyzers", "nosuch", "."}, io.Discard, &errOut); got != 2 {
		t.Fatalf("run = %d, want 2", got)
	}
	msg := errOut.String()
	if !strings.Contains(msg, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr %q does not identify the unknown name", msg)
	}
	for _, want := range []string{"integrityflow", "uncheckederr", "panicfact", "lockorder"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr %q does not list valid analyzer %q", msg, want)
		}
	}
}

// TestRepoSweepClean is the gate's one arcvet run (verify.sh and CI
// have no step of their own): the full suite with waivercheck over the
// whole module must report nothing, so `go test ./...` fails on a
// finding or a stale waiver.
func TestRepoSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package of the module")
	}
	var out, errOut bytes.Buffer
	// The module root, seen from this package's directory.
	if got := run([]string{"-waivercheck", "../../..."}, &out, &errOut); got != 0 {
		t.Fatalf("arcvet -waivercheck ./... = %d, want 0\n%s%s", got, out.String(), errOut.String())
	}
}
