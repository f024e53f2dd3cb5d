package gf256

import (
	"testing"

	"repro/internal/raceflag"
)

// TestMulSliceAllocFree pins the kernel contract: the GF(256)
// multiply-accumulate primitives allocate nothing (they sit inside the
// per-stripe Reed-Solomon loop, which the chunk stream drives once per
// chunk in steady state).
func TestMulSliceAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(i * 31)
	}
	if avg := testing.AllocsPerRun(100, func() { MulSlice(0x1D, src, dst) }); avg != 0 {
		t.Errorf("MulSlice allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { MulSliceAssign(0x1D, src, dst) }); avg != 0 {
		t.Errorf("MulSliceAssign allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { XorSlice(src, dst) }); avg != 0 {
		t.Errorf("XorSlice allocates %.2f allocs/op, want 0", avg)
	}
}

// TestInvertInPlaceAllocFree pins the contract Reed-Solomon repair
// leans on: one e x e solve per damaged stripe, on the caller's
// storage, with no allocation (e <= 15 for the paper's 241+15).
func TestInvertInPlaceAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	const n = 15
	cau, err := Cauchy(n, n) // every Cauchy matrix is invertible
	if err != nil {
		t.Fatal(err)
	}
	a := make([]byte, n*n)
	inv := make([]byte, n*n)
	if avg := testing.AllocsPerRun(100, func() {
		copy(a, cau.Data)
		if err := InvertInPlace(a, inv, n); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("InvertInPlace allocates %.2f allocs/op, want 0", avg)
	}
}
