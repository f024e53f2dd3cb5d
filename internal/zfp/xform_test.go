package zfp

import (
	"math"
	"math/rand"
	"testing"
)

// xformTestBlocks yields random coefficient blocks spanning the full
// int64 range plus structured patterns that stress carry/sign paths of
// the S-transform.
func xformTestBlocks(nd int, seed int64) [][]int64 {
	size := 1 << (2 * nd)
	rng := rand.New(rand.NewSource(seed))
	var blocks [][]int64
	for i := 0; i < 64; i++ {
		b := make([]int64, size)
		for j := range b {
			b[j] = int64(rng.Uint64()) >> uint(rng.Intn(63)) //arcvet:ignore mathbits full-range wraparound values are the point of this stress input
		}
		blocks = append(blocks, b)
	}
	patterns := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 55, -(1 << 55)}
	for _, v := range patterns {
		b := make([]int64, size)
		for j := range b {
			b[j] = v
		}
		blocks = append(blocks, b)
		alt := make([]int64, size)
		for j := range alt {
			if j%2 == 0 {
				alt[j] = v
			} else {
				alt[j] = -v
			}
		}
		blocks = append(blocks, alt)
	}
	return blocks
}

// TestXformMatchesRef pins the unrolled transforms to the strided
// references, element for element, in every dimensionality.
func TestXformMatchesRef(t *testing.T) {
	for nd := 1; nd <= 3; nd++ {
		for bi, blk := range xformTestBlocks(nd, int64(nd)) {
			fast := append([]int64(nil), blk...)
			ref := append([]int64(nil), blk...)
			fwdXform(fast, nd)
			fwdXformRef(ref, nd)
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("nd=%d block=%d: fwdXform[%d]=%d, want %d", nd, bi, i, fast[i], ref[i])
				}
			}
			invXform(fast, nd)
			invXformRef(ref, nd)
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("nd=%d block=%d: invXform[%d]=%d, want %d", nd, bi, i, fast[i], ref[i])
				}
			}
		}
	}
}

// TestNegabinaryBlockMatchesScalar pins the block negabinary helpers to
// the element-wise mapping through the sequency permutation.
func TestNegabinaryBlockMatchesScalar(t *testing.T) {
	for nd := 1; nd <= 3; nd++ {
		perm := sequencyPerm(nd)
		for bi, blk := range xformTestBlocks(nd, int64(10+nd)) {
			u := make([]uint64, len(blk))
			int2uintBlock(u, blk, perm)
			for i, p := range perm {
				if want := int2uint(blk[p]); u[i] != want {
					t.Fatalf("nd=%d block=%d: u[%d]=%#x, want %#x", nd, bi, i, u[i], want)
				}
			}
			back := make([]int64, len(blk))
			uint2intBlock(back, u, perm)
			for i := range blk {
				if back[i] != blk[i] {
					t.Fatalf("nd=%d block=%d: negabinary round-trip [%d]=%d, want %d", nd, bi, i, back[i], blk[i])
				}
			}
		}
	}
}

// TestXformAllocs pins the unrolled kernels to zero allocations.
func TestXformAllocs(t *testing.T) {
	blk := make([]int64, 64)
	perm := sequencyPerm(3)
	u := make([]uint64, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		fwdXform(blk, 3)
		invXform(blk, 3)
		int2uintBlock(u, blk, perm)
		uint2intBlock(blk, u, perm)
	}); allocs != 0 {
		t.Errorf("xform kernels allocate %v times per run, want 0", allocs)
	}
}
