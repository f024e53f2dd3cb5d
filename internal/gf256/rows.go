package gf256

import "fmt"

// A MulMatrix is a coefficient matrix prepared for MulRows: its
// coefficients and, for each one, the 32-byte nibble table of
// nibTables laid out row-major, so that the avx2 kernel reads one row's
// tables at a fixed stride per column, and its 8-byte affine matrix of
// affTables laid out column-major, so that the gfni kernel reads a run
// of rows of one column at fixed offsets. The kernel broadcasts each
// matrix as it loads it: 241x15 matrices of 8 bytes stay in L1 across
// the stripe's columns, where 32-byte copies spill to L2 and ran the
// stripe encode ≈ 20 % slower. It is immutable, so goroutines may share
// one; building it is the per-matrix cost MulRows then never pays (40
// bytes per coefficient).
type MulMatrix struct {
	rows, cols int
	coef       []byte     // row-major
	nib        [][32]byte // nib[i*cols+j] == nibTables[coef[i*cols+j]]
	aff        []uint64   // aff[j*rows+i] == affTables[coef[i*cols+j]]
}

// NewMulMatrix prepares a copy of m for MulRows. m may have at most
// Order rows and columns, the most devices a code over GF(2^8) has.
func NewMulMatrix(m *Matrix) *MulMatrix {
	if m.Rows > Order || m.Cols > Order {
		panic(fmt.Sprintf("gf256: %dx%d matrix is larger than %dx%d", m.Rows, m.Cols, Order, Order))
	}
	mm := &MulMatrix{rows: m.Rows, cols: m.Cols, coef: append([]byte(nil), m.Data...),
		nib: make([][32]byte, len(m.Data)), aff: make([]uint64, len(m.Data))}
	for k, c := range mm.coef {
		mm.nib[k] = nibTables[c]
		mm.aff[k%m.Cols*m.Rows+k/m.Cols] = affTables[c]
	}
	return mm
}

// MulRows sets dst[i] = sum_j m[i][j] * src[j] for every non-nil
// dst[i]: row i of the matrix applied to the sources, src[j] standing
// for column j. A nil src[j], and every column past len(src),
// contributes nothing, so a caller picks a subset of rows and columns
// with nils instead of a second matrix. len(src) may not exceed the
// matrix's columns nor len(dst) its rows, and every non-nil slice must
// have the same length. No dst may overlap a src.
//
// Under the gfni and avx2 tiers one kernel pass loads each source
// block once per 32 bytes and accumulates up to eight destinations in
// registers, and the len%32 tail takes one more pass over 32-byte
// copies (mulRowsTail); the other tiers run one MulSliceAssign and then
// one MulSlice per (destination, source) pair. Every tier gives the
// same bytes: the sums are xors, exact and independent of order.
func (m *MulMatrix) MulRows(src, dst [][]byte) {
	if len(src) > m.cols || len(dst) > m.rows {
		panic(fmt.Sprintf("gf256: MulRows of %d sources into %d rows on a %dx%d matrix", len(src), len(dst), m.rows, m.cols))
	}
	n := -1
	for _, s := range [2][][]byte{src, dst} {
		for _, b := range s {
			if b == nil {
				continue
			}
			if n >= 0 && len(b) != n {
				panic("gf256: MulRows length mismatch")
			}
			n = len(b)
		}
	}
	done := mulRowsSIMD(m, src, dst, n)
	if done == n || AtLeast(LevelAVX2) && mulRowsTail(m, src, dst, done) {
		return
	}
	for i, d := range dst {
		if d == nil {
			continue
		}
		d = d[done:]
		row := m.coef[i*m.cols:]
		first := true
		for j, s := range src {
			if s == nil {
				continue
			}
			if first {
				MulSliceAssign(row[j], s[done:], d)
				first = false
			} else {
				MulSlice(row[j], s[done:], d)
			}
		}
		if first {
			clear(d)
		}
	}
}

// mulRowsTail runs MulRows over the bytes from done to the end of every
// row, fewer than 32, through the kernel: each source's tail is copied
// into a 32-byte slot, one mulRowsSIMD call fills a slot per
// destination, and each destination's tail is copied back out. The
// multiply is bytewise, so whatever lies in a slot past the tail only
// reaches destination bytes that are dropped. It reports false, having
// written nothing, when no source is non-nil: the caller then clears
// the destinations.
//
// A row's tail otherwise costs one MulSlice call per (destination,
// source) pair: 3 615 calls of at most 31 bytes per 241+15 stripe,
// which made a Reed-Solomon device of 1022 bytes 2.5x dearer per byte
// than one of 1024 (docs/KERNELS.md).
func mulRowsTail(m *MulMatrix, src, dst [][]byte, done int) bool {
	var srcSlots, dstSlots [Order][32]byte
	var srcTail, dstTail [Order][]byte
	for j, s := range src {
		if s != nil {
			copy(srcSlots[j][:], s[done:])
			srcTail[j] = srcSlots[j][:]
		}
	}
	for i, d := range dst {
		if d != nil {
			dstTail[i] = dstSlots[i][:]
		}
	}
	if mulRowsSIMD(m, srcTail[:len(src)], dstTail[:len(dst)], 32) == 0 {
		return false
	}
	for i, d := range dst {
		if d != nil {
			copy(d[done:], dstSlots[i][:])
		}
	}
	return true
}
