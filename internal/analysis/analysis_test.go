package analysis_test

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeFixture materializes a throwaway module and returns its root.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// analyzeResult runs every registered analyzer over the fixture
// module and returns the full Result (findings, facts, graph).
func analyzeResult(t *testing.T, root string, waiverCheck bool) *analysis.Result {
	t.Helper()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Run(loader, dirs, analysis.All(), waiverCheck)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// analyze is analyzeResult for tests that only read the findings.
func analyze(t *testing.T, root string) []analysis.Diagnostic {
	t.Helper()
	return analyzeResult(t, root, false).Diagnostics
}

var wantRe = regexp.MustCompile(`// want ([a-z ]+)$`)

// checkMarkers compares diagnostics against `// want <analyzer>...`
// markers in the fixture sources: every marker must produce a finding
// by that analyzer on its line, and every finding must have a marker.
func checkMarkers(t *testing.T, root string, files map[string]string, diags []analysis.Diagnostic) {
	t.Helper()
	want := map[string]bool{} // "file:line analyzer"
	for name, src := range files {
		for i, line := range strings.Split(src, "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, a := range strings.Fields(m[1]) {
				want[fmt.Sprintf("%s:%d %s", name, i+1, a)] = true
			}
		}
	}
	got := map[string]bool{}
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			t.Fatalf("diagnostic outside fixture: %v", d)
		}
		got[fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), d.Line, d.Analyzer)] = true
	}
	var missing, unexpected []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			unexpected = append(unexpected, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(unexpected)
	for _, k := range missing {
		t.Errorf("expected finding not reported: %s", k)
	}
	for _, k := range unexpected {
		t.Errorf("unexpected finding: %s", k)
	}
}

func TestUncheckedErr(t *testing.T) {
	files := map[string]string{"p/p.go": `package p

import (
	"fmt"
	"io"
	"os"
	"strings"
)

func mayFail() error { return nil }

func twoResults() (int, error) { return 0, nil }

func uses() {
	mayFail()     // want uncheckederr
	twoResults()  // want uncheckederr
	_ = mayFail() // explicit discard is the opt-out
	if err := mayFail(); err != nil {
		panic(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "x")        // strings.Builder cannot fail
	fmt.Fprintln(os.Stderr, "x") // std streams are exempt
	fmt.Println("x")             // fmt.Print* convention
	var w io.Writer = &sb
	fmt.Fprint(w, "x") // want uncheckederr
	sb.WriteString("x")
}
`}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

func TestBitWidth(t *testing.T) {
	files := map[string]string{
		"internal/bitio/bitio.go": `package bitio

type Writer struct{}

func (w *Writer) WriteBits(v uint64, n int) {}

type Reader struct{}

func (r *Reader) ReadBits(n int) (uint64, error) { return 0, nil }

func (r *Reader) Skip(n int) {}
`,
		"p/p.go": `package p

import "fixture/internal/bitio"

func bits(w *bitio.Writer, r *bitio.Reader, v uint64) {
	w.WriteBits(v, 65) // want bitwidth
	w.WriteBits(v, 0)  // want bitwidth
	w.WriteBits(v, 8)
	w.WriteBits(v, 64)
	_, _ = r.ReadBits(65) // want bitwidth
	_, _ = r.ReadBits(1)
	r.Skip(8)
}

func shifts(x uint32, y uint64, n int) uint64 {
	_ = x >> 32 // go vet's shift pass reports this line, so bitwidth does not
	_ = x >> 31
	y <<= 64 // and this one
	y <<= 1
	_ = y << uint(n)
	return uint64(x) << 40
}
`,
	}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

func TestMathBits(t *testing.T) {
	files := map[string]string{
		// Path contains internal/sz, so the analyzer applies.
		"internal/sz/sz.go": `package sz

func convert(n int, u uint64, w uint32, xs []int) {
	_ = uint32(n) // want mathbits
	_ = int(u)    // want mathbits
	_ = int32(w)  // want mathbits
	_ = uint8(w)  // want mathbits
	_ = int8(n)   // want mathbits
	_ = uint64(len(xs))
	_ = int64(n)
	_ = uint64(w)
	var b uint64 = 1
	_ = b << uint(n)
	const k = 7
	_ = uint32(k)
}
`,
		// Same conversions outside the codec packages: not applicable.
		"other/other.go": `package other

func convert(n int, u uint64) {
	_ = uint32(n)
	_ = int(u)
}
`,
	}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

// TestExternalTestPackage ensures package foo_test files are loaded
// and analyzed as their own unit, type-checked the way `go test`
// builds them: against p with its in-package test files (the method
// export_test.go declares), and against a q recompiled on that p, so
// q's *p.T is the test's *p.T.
func TestExternalTestPackage(t *testing.T) {
	files := map[string]string{
		"p/p.go": `package p

type T struct{ n int }

func MayFail() error { return nil }
`,
		"p/export_test.go": `package p

func (t *T) N() int { return t.n }
`,
		"q/q.go": `package q

import "fixture/p"

func New() *p.T { return new(p.T) }
`,
		"p/ext_test.go": `package p_test

import (
	"testing"

	"fixture/p"
	"fixture/q"
)

func TestUsesP(t *testing.T) {
	p.MayFail() // want uncheckederr
	var x *p.T = q.New()
	_ = x.N()
}
`,
	}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

func TestSuppressions(t *testing.T) {
	files := map[string]string{"sup/sup.go": `package sup

func mayFail() error { return nil }

func f() {
	mayFail() //arcvet:ignore uncheckederr same-line waiver
	//arcvet:ignore uncheckederr above-line waiver
	mayFail()
	//arcvet:ignore
	mayFail() //arcvet:ignore nosuchanalyzer typo
}
`}
	root := writeFixture(t, files)
	diags := analyze(t, root)
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s", d.Line, d.Analyzer))
	}
	sort.Strings(got)
	// Line 9: bare ignore is itself a finding. Line 10: the unknown
	// analyzer name is a finding AND fails to suppress the dropped
	// error beneath it.
	want := []string{"10 arcvet", "10 uncheckederr", "9 arcvet"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("diagnostics = %v, want %v", got, want)
	}
}

// TestWaiverCheck seeds one waiver that suppresses a real finding and
// one that suppresses nothing; only the stale one must be reported.
func TestWaiverCheck(t *testing.T) {
	files := map[string]string{
		"p/p.go": `package p

func mayFail() error { return nil }

func uses() int {
	//arcvet:ignore uncheckederr fixture exercises the waiver path
	mayFail()
	x := 1
	//arcvet:ignore uncheckederr nothing to suppress here
	return x
}
`,
	}
	root := writeFixture(t, files)
	var stale []string
	for _, d := range analyzeResult(t, root, true).Diagnostics {
		if d.Analyzer != "waivercheck" {
			t.Errorf("unexpected finding %v", d)
			continue
		}
		stale = append(stale, fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line))
	}
	if want := []string{"p.go:9"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale waivers %v, want %v", stale, want)
	}
}

func TestDiagnosticString(t *testing.T) {
	files := map[string]string{"p/p.go": `package p

func mayFail() error { return nil }

func f() {
	mayFail()
}
`}
	root := writeFixture(t, files)
	diags := analyze(t, root)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	want := filepath.Join(root, "p", "p.go") + ":6:2: [uncheckederr] result of fixture/p.mayFail contains an error that is discarded"
	if diags[0].String() != want {
		t.Fatalf("String() = %q, want %q", diags[0].String(), want)
	}
	if diags[0].File == "" || diags[0].Line != 6 || diags[0].Col != 2 {
		t.Fatalf("flattened position not populated: %+v", diags[0])
	}
}

func TestByName(t *testing.T) {
	all, err := analysis.ByName("")
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want the full set of 8", len(all), err)
	}
	two, err := analysis.ByName("bitwidth, mathbits")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset failed: %v", err)
	}
	if _, err := analysis.ByName("nosuch"); err == nil {
		t.Fatal("unknown analyzer name must be an error")
	}
}

func TestAppliesTo(t *testing.T) {
	a := &analysis.Analyzer{Name: "x", Packages: []string{"internal/sz"}}
	if !a.AppliesTo("fixture/internal/sz") || a.AppliesTo("fixture/other") {
		t.Fatal("package restriction not honored")
	}
	every := &analysis.Analyzer{Name: "y"}
	if !every.AppliesTo("anything") {
		t.Fatal("empty Packages must mean run everywhere")
	}
}

// TestBuildConstraints ensures platform-variant files are excluded the
// way `go build` would exclude them: by //go:build expression (a tag,
// ignore, a Go release newer than the toolchain) and by filename
// suffix. The excluded files redeclare `impl`, so if any were wrongly
// loaded the fixture would fail to typecheck.
func TestBuildConstraints(t *testing.T) {
	otherOS := "windows"
	if build.Default.GOOS == otherOS {
		otherOS = "linux"
	}
	otherArch := "s390x"
	if build.Default.GOARCH == otherArch {
		otherArch = "amd64"
	}
	files := map[string]string{
		"p/p.go": `package p

const impl = "portable"

func mayFail() error { return nil }

func use() {
	mayFail() // want uncheckederr
}
`,
		"p/p_other.go": fmt.Sprintf(`//go:build %s

package p

const impl = "tagged"
`, otherArch),
		fmt.Sprintf("p/q_%s.go", otherOS): `package p

const impl = "suffixed"
`,
		"p/ignored.go": `//go:build ignore

package p

const impl = "ignored"
`,
		"p/future.go": `//go:build go1.99

package p

const impl = "future"
`,
	}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

func TestBuiltinShadow(t *testing.T) {
	files := map[string]string{"p/p.go": `package p

func min(a, b int) int { // want builtinshadow
	if a < b {
		return a
	}
	return b
}

type rng struct {
	min int // fields are selector-qualified: no shadowing
	max int
}

func (r rng) clear() {} // methods are selector-qualified: no shadowing

func use() int {
	max := 3 // want builtinshadow
	r := rng{min: 1, max: max}
	r.clear()
	return min(r.min, r.max)
}
`}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}
