package ecc

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestMethodString(t *testing.T) {
	want := map[Method]string{
		MethodParity:      "ARC_PARITY",
		MethodHamming:     "ARC_HAMMING",
		MethodSECDED:      "ARC_SECDED",
		MethodReedSolomon: "ARC_RS",
		Method(99):        "ARC_UNKNOWN",
	}
	for m, w := range want {
		if m.String() != w {
			t.Fatalf("%d: %q", m, m.String())
		}
	}
}

func TestCapabilityHas(t *testing.T) {
	c := DetectSparse | CorrectSparse
	if !c.Has(DetectSparse) || !c.Has(CorrectSparse) {
		t.Fatal("Has must match set bits")
	}
	if c.Has(CorrectBurst) {
		t.Fatal("Has must reject unset bits")
	}
	if !c.Has(DetectSparse | CorrectSparse) {
		t.Fatal("Has must accept subsets")
	}
	if c.Has(DetectSparse | CorrectBurst) {
		t.Fatal("Has requires every bit")
	}
	if !c.Has(0) {
		t.Fatal("empty requirement always satisfied")
	}
}

func TestCapabilityString(t *testing.T) {
	if got := (DetectSparse | CorrectSparse | CorrectBurst).String(); got != "ARC_DET_SPARSE|ARC_COR_SPARSE|ARC_COR_BURST" {
		t.Fatalf("full caps: %q", got)
	}
	if got := Capability(0).String(); got != "NONE" {
		t.Fatalf("empty caps: %q", got)
	}
	if got := CorrectBurst.String(); got != "ARC_COR_BURST" {
		t.Fatalf("single cap: %q", got)
	}
}

func TestReportMerge(t *testing.T) {
	a := Report{DetectedBlocks: 1, CorrectedBits: 2, CorrectedBlocks: 3}
	b := Report{DetectedBlocks: 10, CorrectedBits: 20, CorrectedBlocks: 30}
	a.Merge(b)
	if a.DetectedBlocks != 11 || a.CorrectedBits != 22 || a.CorrectedBlocks != 33 {
		t.Fatalf("merged %+v", a)
	}
}

// TestReadN covers the three ways ReadN sizes its buffer: a claim
// within direct, a dst that already holds the claim, and a claim that
// grows as bytes arrive, whole or cut short.
func TestReadN(t *testing.T) {
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i)
	}
	const direct = 8
	got, err := ReadN(bytes.NewReader(src), nil, 5, direct)
	if err != nil || !bytes.Equal(got, src[:5]) {
		t.Fatalf("within direct: %v %v", got, err)
	}
	dst := make([]byte, 0, 64)
	got, err = ReadN(bytes.NewReader(src), dst, 50, direct)
	if err != nil || !bytes.Equal(got, src[:50]) || &got[0] != &dst[:1][0] {
		t.Fatalf("dst with room: %v, reused %v", err, err == nil && &got[0] == &dst[:1][0])
	}
	got, err = ReadN(bytes.NewReader(src), nil, 100, direct)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("grown: %v %v", got, err)
	}
	for _, have := range []int{0, 3, direct, 20} {
		got, err := ReadN(bytes.NewReader(src[:have]), nil, 100, direct)
		if got != nil || err == nil || !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d of 100 bytes: %v, %v", have, got, err)
		}
	}
}
