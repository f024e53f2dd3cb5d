package analysis_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// allocGuardFixture exercises every allocguard sink, including the
// two interprocedural ones: a tainted result crossing a package
// boundary (taint.result fact) and a tainted argument reaching an
// unguarded allocation inside a callee (taint.paramalloc fact).
// Package p sorts before its dependency q in directory walk order, so
// the cross-package cases also prove the driver's topological
// ordering: q's facts must exist before p is analyzed.
var allocGuardFixture = map[string]string{
	"q/q.go": `package q

import "encoding/binary"

// WireLen decodes a length field; callers own the bound check.
func WireLen(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }

// Table allocates from its argument without a bound of its own.
func Table(n int) []int { return make([]int, n) }
`,
	"p/p.go": `package p

import (
	"encoding/binary"
	"io"

	"fixture/q"
)

const maxLen = 1 << 20

func Alloc(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return make([]byte, n) // want allocguard
}

func AllocGuarded(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	if n > maxLen {
		return nil
	}
	return make([]byte, n)
}

func CopyBound(dst io.Writer, src io.Reader, hdr []byte) {
	n := binary.LittleEndian.Uint64(hdr)
	_, _ = io.CopyN(dst, src, int64(n)) // want allocguard
}

func ReadBound(r io.Reader, buf, hdr []byte) {
	n := int(binary.LittleEndian.Uint32(hdr))
	_, _ = io.ReadFull(r, buf[:n]) // want allocguard
}

func ReadBoundGuarded(r io.Reader, buf, hdr []byte) {
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > len(buf) {
		return
	}
	_, _ = io.ReadFull(r, buf[:n])
}

func LoopAppend(hdr []byte) []int {
	n := int(binary.LittleEndian.Uint32(hdr))
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want allocguard
	}
	return out
}

func AllocViaHelper(b []byte) []byte {
	return make([]byte, q.WireLen(b)) // want allocguard
}

func AllocViaHelperGuarded(b []byte) []byte {
	n := q.WireLen(b)
	if n > maxLen {
		return nil
	}
	return make([]byte, n)
}

func AllocViaParam(b []byte) []int {
	return q.Table(q.WireLen(b)) // want allocguard
}
`,
}

func TestAllocGuard(t *testing.T) {
	root := writeFixture(t, allocGuardFixture)
	checkMarkers(t, root, allocGuardFixture, analyze(t, root))
}

// TestAllocGuardLoopInsideCond: a loop inside a function literal in the
// outer loop's condition must not take the outer loop's trip origin.
func TestAllocGuardLoopInsideCond(t *testing.T) {
	fixture := map[string]string{"p/p.go": `package p

import "encoding/binary"

func LoopAppend(hdr []byte) []int {
	n := int(binary.LittleEndian.Uint32(hdr))
	var out []int
	for i := 0; i < n && ok(func() {
		for j := 0; j < 2; j++ {
		}
	}); i++ {
		out = append(out, i) // want allocguard
	}
	return out
}

func ok(func()) bool { return true }
`}
	root := writeFixture(t, fixture)
	checkMarkers(t, root, fixture, analyze(t, root))
}

var panicFactFixture = map[string]string{
	"inner/inner.go": `package inner

// MustPositive panics on negative input.
func MustPositive(n int) int {
	if n < 0 {
		panic("negative") // want panicfact
	}
	return n
}
`,
	"codec/codec.go": `package codec

import (
	"encoding/binary"
	"errors"

	"fixture/inner"
)

var errBad = errors.New("bad input")

// Decode reaches inner.MustPositive's panic with no recover: the
// finding lands at the panic site in the other package.
func Decode(buf []byte) int {
	return inner.MustPositive(int(binary.LittleEndian.Uint32(buf)))
}

// DecodeSafe absorbs the same panic, so it contributes no finding.
func DecodeSafe(buf []byte) (n int, err error) {
	defer func() {
		if recover() != nil {
			n, err = 0, errBad
		}
	}()
	return inner.MustPositive(int(binary.LittleEndian.Uint32(buf))), nil
}

func DecodeIndex(table []int, buf []byte) int {
	n := int(binary.LittleEndian.Uint32(buf))
	return table[n] // want panicfact
}

func DecodeIndexGuarded(table []int, buf []byte) int {
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 0 || n >= len(table) {
		return 0
	}
	return table[n]
}

func DecodeAny(v any) int {
	return v.(int) // want panicfact
}

// helperPanics is not reachable from any decoder entry point, so its
// panic stays a fact, not a finding.
func helperPanics() {
	panic("internal invariant")
}
`,
}

func TestPanicFact(t *testing.T) {
	root := writeFixture(t, panicFactFixture)
	res := analyzeResult(t, root, false)
	checkMarkers(t, root, panicFactFixture, res.Diagnostics)
	// The fact crosses the package boundary with its source intact.
	f, ok := res.Facts.ImportKey("fixture/inner.MustPositive", "panicfact.maypanic")
	if !ok {
		t.Fatal("no panicfact.maypanic fact on inner.MustPositive")
	}
	if mp := f.(*analysis.MayPanicFact); len(mp.Sources) == 0 || mp.Sources[0].What != "explicit panic" {
		t.Fatalf("unexpected fact content: %+v", mp)
	}
}

// TestFactStoreRoundTrip pins the store contract analyzers rely on
// across fixpoint rounds and package boundaries: a fact read back by
// key is the one exported, a re-export replaces it, a delete withdraws
// it, and two runs over the same tree prove the same fact.
func TestFactStoreRoundTrip(t *testing.T) {
	root := writeFixture(t, panicFactFixture)
	const key, name = "fixture/inner.MustPositive", "panicfact.maypanic"
	first, ok := analyzeResult(t, root, false).Facts.ImportKey(key, name)
	if !ok {
		t.Fatalf("no %s fact on %s", name, key)
	}
	again, ok := analyzeResult(t, root, false).Facts.ImportKey(key, name)
	if !ok || !reflect.DeepEqual(first, again) {
		t.Fatalf("two runs prove different facts:\nfirst:  %+v\nsecond: %+v", first, again)
	}

	s := analysis.NewFactStore()
	if _, ok := s.ImportKey(key, name); ok {
		t.Fatal("empty store returned a fact")
	}
	s.ExportKey(key, first)
	if got, ok := s.ImportKey(key, name); !ok || got != first {
		t.Fatalf("ImportKey after ExportKey = %v, %v; want the exported fact", got, ok)
	}
	replaced := &analysis.MayPanicFact{}
	s.ExportKey(key, replaced)
	if got, _ := s.ImportKey(key, name); got != replaced {
		t.Fatalf("re-export did not replace the fact: got %+v", got)
	}
	if _, ok := s.Import(nil, name); ok {
		t.Fatal("Import(nil) returned a fact")
	}
	s.DeleteKey(key, name)
	if _, ok := s.ImportKey(key, name); ok {
		t.Fatal("DeleteKey left the fact in place")
	}
}

// TestWaiverStatementSpan proves the satellite fix: a directive on
// the first line of a multi-line statement (or the line above it)
// waives findings reported on the statement's continuation lines,
// while an identical unwaived statement still fires.
func TestWaiverStatementSpan(t *testing.T) {
	files := map[string]string{"sp/sp.go": `package sp

import "encoding/binary"

func waivedAbove(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	//arcvet:ignore allocguard fixture: bound enforced by the caller
	return append([]byte{},
		make([]byte, n)...)
}

func waivedOnFirstLine(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return append([]byte{}, //arcvet:ignore allocguard fixture: bound enforced by the caller
		make([]byte, n)...)
}

func unwaived(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return append([]byte{},
		make([]byte, n)...) // want allocguard
}
`}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

// TestTopoOrderAndGraph checks the call graph over the allocguard
// fixture: cross-package edges exist and reachability follows them.
func TestTopoOrderAndGraph(t *testing.T) {
	root := writeFixture(t, allocGuardFixture)
	res := analyzeResult(t, root, false)
	if res.Graph == nil || res.Facts == nil {
		t.Fatal("Result must expose the call graph and fact store")
	}
	node := res.Graph.Node("fixture/p.AllocViaHelper")
	if node == nil {
		t.Fatal("missing call-graph node for fixture/p.AllocViaHelper")
	}
	foundEdge := false
	for _, callee := range node.Callees {
		if callee == "fixture/q.WireLen" {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Fatalf("AllocViaHelper callees = %v, want fixture/q.WireLen", node.Callees)
	}

	// The facts the cross-package findings relied on must be present.
	if _, ok := res.Facts.ImportKey("fixture/q.WireLen", "taint.result"); !ok {
		t.Fatal("missing taint.result fact on fixture/q.WireLen")
	}
	if _, ok := res.Facts.ImportKey("fixture/q.Table", "taint.paramalloc"); !ok {
		t.Fatal("missing taint.paramalloc fact on fixture/q.Table")
	}
}

// TestDeterministicOutput runs the same analysis twice and requires
// identical, (file, line, col, analyzer)-sorted diagnostics.
func TestDeterministicOutput(t *testing.T) {
	root := writeFixture(t, allocGuardFixture)
	a := analyze(t, root)
	b := analyze(t, root)
	render := func(ds []analysis.Diagnostic) string {
		var sb strings.Builder
		for _, d := range ds {
			sb.WriteString(d.String())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	if render(a) != render(b) {
		t.Fatalf("two runs disagree:\n%s\nvs\n%s", render(a), render(b))
	}
	for i := 1; i < len(a); i++ {
		p, q := a[i-1], a[i]
		if p.File > q.File || (p.File == q.File && (p.Line > q.Line ||
			(p.Line == q.Line && (p.Col > q.Col ||
				(p.Col == q.Col && p.Analyzer > q.Analyzer))))) {
			t.Fatalf("diagnostics not sorted at %d: %v before %v", i, p, q)
		}
	}
}
