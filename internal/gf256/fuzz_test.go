package gf256

import (
	"bytes"
	"testing"
)

// FuzzGF256Dispatch feeds the same inputs through every compiled-in
// dispatch tier, gfni included (forced via ForceTier), plus the scalar
// references and requires byte-identical outputs. The slice is split at
// an arbitrary point into src/dst so the fuzzer controls length,
// alignment, and content of both operands.
func FuzzGF256Dispatch(f *testing.F) {
	f.Add(byte(2), []byte{})
	f.Add(byte(0x1D), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(byte(0xFF), bytes.Repeat([]byte{0xA5, 0x3C}, 40))
	f.Add(byte(1), make([]byte, 65))
	f.Fuzz(func(t *testing.T, c byte, data []byte) {
		src := data[:len(data)/2]
		dst := data[len(data)/2 : len(data)/2*2]

		wantMul := append([]byte(nil), dst...)
		MulSliceRef(c, src, wantMul)
		wantAssign := make([]byte, len(src))
		MulSliceAssignRef(c, src, wantAssign)
		wantXor := append([]byte(nil), dst...)
		XorSliceRef(src, wantXor)

		for _, tier := range Tiers() {
			restore, err := ForceTier(tier)
			if err != nil {
				t.Fatalf("ForceTier(%q): %v", tier, err)
			}
			gotMul := append([]byte(nil), dst...)
			MulSlice(c, src, gotMul)
			gotAssign := make([]byte, len(src))
			MulSliceAssign(c, src, gotAssign)
			gotXor := append([]byte(nil), dst...)
			XorSlice(src, gotXor)
			restore()

			if !bytes.Equal(gotMul, wantMul) {
				t.Errorf("tier %q MulSlice(c=%d, n=%d) diverges from reference", tier, c, len(src))
			}
			if !bytes.Equal(gotAssign, wantAssign) {
				t.Errorf("tier %q MulSliceAssign(c=%d, n=%d) diverges from reference", tier, c, len(src))
			}
			if !bytes.Equal(gotXor, wantXor) {
				t.Errorf("tier %q XorSlice(n=%d) diverges from reference", tier, len(src))
			}
		}
	})
}

// FuzzGF256MulRows holds MulRows to sums of MulSliceRef under every
// tier, over an arbitrary matrix shape, coefficients, source and row
// selection, length and buffer offset: the bytes after the shape are
// split into the coefficients and then one block per source.
func FuzzGF256MulRows(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0xff), uint8(0xff), uint8(40), uint8(0), []byte("multi-destination kernel"))
	f.Add(uint8(15), uint8(17), uint8(0xb7), uint8(0x7e), uint8(64), uint8(5), bytes.Repeat([]byte{0x1d, 0x80, 0}, 300))
	f.Add(uint8(9), uint8(1), uint8(0), uint8(0xff), uint8(33), uint8(1), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, rows8, cols8, srcMask, rowMask, n8, off8 uint8, data []byte) {
		rows, cols, n, off := 1+int(rows8)%17, 1+int(cols8)%9, int(n8)%100, int(off8)%8
		m := NewMatrix(rows, cols)
		data = data[copy(m.Data, data):]
		src := make([][]byte, cols)
		for j := range src {
			if srcMask>>(j%8)&1 != 0 {
				src[j] = make([]byte, n+off)[off:]
				data = data[copy(src[j], data):]
			}
		}
		want := make([][]byte, rows)
		dst := make([][]byte, rows)
		for i := range want {
			if rowMask>>(i%8)&1 != 0 {
				want[i] = make([]byte, n)
			}
		}
		mulRowsRef(m, src, want)
		mm := NewMulMatrix(m)
		for _, tier := range Tiers() {
			restore, err := ForceTier(tier)
			if err != nil {
				t.Fatalf("ForceTier(%q): %v", tier, err)
			}
			for i := range dst {
				if want[i] != nil {
					dst[i] = bytes.Repeat([]byte{0xa5}, n+off)[off:]
				}
			}
			mm.MulRows(src, dst)
			restore()
			for i := range dst {
				if !bytes.Equal(dst[i], want[i]) {
					t.Fatalf("tier %q: %dx%d, n=%d off=%d: row %d differs from the reference", tier, rows, cols, n, off, i)
				}
			}
		}
	})
}
