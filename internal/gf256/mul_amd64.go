//go:build amd64

package gf256

// The amd64 fast paths multiply 16 or 32 bytes per instruction group
// with PSHUFB/VPSHUFB nibble tables, the technique used by production
// erasure coders in the Jerasure/klauspost lineage (and by ISA-L): by
// GF(2)-linearity, c*x == c*(x & 0x0F) ^ c*(x & 0xF0), so one 16-entry
// table per nibble half turns the multiply into two byte shuffles and
// an XOR. The AVX2 kernels broadcast the same 16-byte tables into both
// 128-bit lanes of a YMM register and process 32 source bytes per
// iteration. The GFNI kernels need no tables: multiplication by c is
// a linear map of GF(2)^8, an 8x8 bit matrix, and VGF2P8AFFINEQB
// applies one to every byte of a YMM register at once. Tier selection
// (CPUID feature detection, ARC_SIMD override) lives in
// dispatch_amd64.go; every path is byte-identical because the nibble
// tables and the matrices are derived from the same multiplication.

// cpuid executes the CPUID instruction for the given leaf (sub-leaf 0).
// Implemented in mul_amd64.s.
func cpuid(op uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0), which reports the
// register state the OS saves on context switch. Only called after
// CPUID confirms OSXSAVE support. Implemented in mul_amd64.s.
func xgetbv() (eax, edx uint32)

// gfMulXorNib computes dst[i] ^= tab-multiply(src[i]) over len(src)
// bytes, which must be a multiple of 16 and equal len(dst).
// Implemented in mul_amd64.s (SSSE3).
func gfMulXorNib(tab *[32]byte, src, dst []byte)

// gfMulNib computes dst[i] = tab-multiply(src[i]) (overwrite, not
// accumulate) with the same contract as gfMulXorNib.
// Implemented in mul_amd64.s (SSSE3).
func gfMulNib(tab *[32]byte, src, dst []byte)

// gfMulXorAVX2 is gfMulXorNib over 32-byte VPSHUFB lanes; len(src)
// must be a multiple of 32. Implemented in mul_amd64.s (AVX2).
func gfMulXorAVX2(tab *[32]byte, src, dst []byte)

// gfMulAVX2 is the overwrite variant of gfMulXorAVX2.
// Implemented in mul_amd64.s (AVX2).
func gfMulAVX2(tab *[32]byte, src, dst []byte)

// gfXorAVX2 computes dst[i] ^= src[i] over len(src) bytes, a multiple
// of 32. Implemented in mul_amd64.s (AVX2).
func gfXorAVX2(src, dst []byte)

// A srcRef is one MulRows source as the kernels read it: its first
// byte and the byte offset of its column's tables, in a row of nibble
// tables for mulRowsAVX2 and from a pass's first affine matrix for
// mulRowsGFNI.
type srcRef struct {
	p   *byte
	off uintptr
}

// mulRowsAVX2 sets the first nrows (1 to 8) destinations to the sums
// of the sources times their tables over n bytes, a positive multiple
// of 32, for at least one source. Implemented in mul_amd64.s (AVX2).
//
//go:noescape
func mulRowsAVX2(srcs []srcRef, rows, dsts *[8]*byte, n, nrows int)

// gfMulXorGFNI computes dst[i] ^= c*src[i] over len(src) bytes, a
// multiple of 32, where mat is c's affine matrix (affTables): one
// VGF2P8AFFINEQB per 32 bytes. Implemented in mul_amd64.s (GFNI).
func gfMulXorGFNI(mat *uint64, src, dst []byte)

// gfMulGFNI is the overwrite variant of gfMulXorGFNI.
// Implemented in mul_amd64.s (GFNI).
func gfMulGFNI(mat *uint64, src, dst []byte)

// mulRowsGFNI sets the first nrows (1 to 8) destinations to the
// sums of the sources times their affine matrices over n bytes, a
// positive multiple of 32, for at least one source; the matrix of row
// r of a source is at mats + off + 8*r. Implemented in mul_amd64.s
// (GFNI).
//
//go:noescape
func mulRowsGFNI(srcs []srcRef, mats *uint64, dsts *[8]*byte, n, nrows int)
