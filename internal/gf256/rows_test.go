package gf256

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/raceflag"
)

// mulRowsRef is MulRows as sums of MulSliceRef: the oracle of
// TestMulRowsMatchesRef and FuzzGF256MulRows.
func mulRowsRef(m *Matrix, src, dst [][]byte) {
	for i, d := range dst {
		if d == nil {
			continue
		}
		clear(d)
		for j, s := range src {
			if s != nil {
				MulSliceRef(m.At(i, j), s, d)
			}
		}
	}
}

// checkMulRows runs MulRows and mulRowsRef on the same operands, with
// poisoned destinations and sources at offset off into their buffers,
// and fails on any difference in any destination, written or not.
func checkMulRows(t *testing.T, m *Matrix, srcOn, dstOn []bool, n, off int, rng *rand.Rand) {
	t.Helper()
	src := make([][]byte, len(srcOn))
	for j, on := range srcOn {
		if on {
			src[j] = make([]byte, n+off)[off:]
			rng.Read(src[j])
		}
	}
	got := make([][]byte, len(dstOn))
	want := make([][]byte, len(dstOn))
	for i := range dstOn {
		raw := make([]byte, n+off)
		rng.Read(raw)
		got[i], want[i] = raw[off:], bytes.Clone(raw[off:])
	}
	gotDst, wantDst := make([][]byte, len(dstOn)), make([][]byte, len(dstOn))
	for i, on := range dstOn {
		if on {
			gotDst[i], wantDst[i] = got[i], want[i]
		}
	}
	NewMulMatrix(m).MulRows(src, gotDst)
	mulRowsRef(m, src, wantDst)
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%dx%d matrix, %d sources, %d rows, n=%d off=%d: row %d (written %v) differs from the reference",
				m.Rows, m.Cols, len(srcOn), len(dstOn), n, off, i, dstOn[i])
		}
	}
}

// TestMulRowsMatchesRef holds MulRows to sums of MulSliceRef under
// every tier: row counts either side of the eight-row pass, lengths
// either side of the 32-byte column, unaligned operands, and nil
// sources and rows.
func TestMulRowsMatchesRef(t *testing.T) { forEachTier(t, testMulRowsMatchesRef) }

func testMulRowsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []struct{ rows, cols int }{{1, 1}, {3, 5}, {8, 9}, {9, 4}, {15, 256}, {16, 17}, {17, 3}} {
		m := NewMatrix(shape.rows, shape.cols)
		rng.Read(m.Data)
		m.Data[0], m.Data[len(m.Data)-1] = 0, 1
		for _, n := range []int{0, 1, 31, 32, 33, 64, 95, 1024, 1031} {
			for _, off := range []int{0, 3} {
				all := func(k int) []bool {
					on := make([]bool, k)
					for i := range on {
						on[i] = true
					}
					return on
				}
				some := func(k int) []bool {
					on := make([]bool, k)
					for i := range on {
						on[i] = rng.Intn(3) > 0
					}
					return on
				}
				checkMulRows(t, m, all(shape.cols), all(shape.rows), n, off, rng)
				checkMulRows(t, m, some(rng.Intn(shape.cols+1)), some(rng.Intn(shape.rows+1)), n, off, rng)
				checkMulRows(t, m, make([]bool, shape.cols), all(shape.rows), n, off, rng)
			}
		}
	}
}

func TestMulRowsMisusePanics(t *testing.T) {
	m := NewMulMatrix(NewMatrix(2, 3))
	a, b := make([]byte, 4), make([]byte, 5)
	for name, fn := range map[string]func(){
		"too many sources": func() { m.MulRows(make([][]byte, 4), nil) },
		"too many rows":    func() { m.MulRows(nil, make([][]byte, 3)) },
		"length mismatch":  func() { m.MulRows([][]byte{a, nil, a}, [][]byte{b}) },
		"matrix too large": func() { NewMulMatrix(NewMatrix(1, Order+1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMulRowsAllocFree pins MulRows at zero allocations under every
// tier: Reed-Solomon runs it once per stripe, for encode and for every
// damaged stripe's syndromes. 272 and 1022 bytes are the device sizes
// core picks for a 64 KiB chunk and for a chunk that does not fill its
// last 4 MiB stripe, whose rows end in a tail the kernel takes from
// 32-byte stack slots.
func TestMulRowsAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	g, err := RSGeneratorMatrix(241, 15)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMulMatrix(g.SubMatrix(intRange(256)[241:]))
	for _, n := range []int{272, 1022, 1024} {
		src, dst := make([][]byte, 241), make([][]byte, 15)
		for j := range src {
			src[j] = make([]byte, n)
		}
		for i := range dst {
			dst[i] = make([]byte, n)
		}
		for _, tier := range Tiers() {
			restore, err := ForceTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(20, func() { m.MulRows(src, dst) }); avg != 0 {
				t.Errorf("%d-byte rows, tier %s: MulRows allocates %.2f allocs/op, want 0", n, tier, avg)
			}
			restore()
		}
	}
}
