// Package gf256 implements arithmetic over the finite field GF(2^8),
// the substrate for the Reed-Solomon coder in internal/ecc/reedsolomon.
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same polynomial used by most
// storage erasure-coding libraries (including Jerasure, which the paper
// builds on). Multiplication and inversion run through log/exp tables
// built once at package init.
package gf256

import "encoding/binary"

// Poly is the primitive polynomial used to construct the field,
// represented with the implicit x^8 term stripped (0x11D & 0xFF = 0x1D
// plus the carry handling below).
const Poly = 0x11D

// Order is the number of elements in the field.
const Order = 256

var (
	expTable [510]byte // doubled so Mul can skip a mod 255
	logTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		expTable[i+255] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	// logTable[0] is undefined in the field; leave it zero. Callers must
	// special-case zero operands, as Mul and Inv below do.
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse,
// so Sub is identical.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8), which equals a+b.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics when a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator element 2 raised to the power n (n may be
// any non-negative integer; it is reduced mod 255).
func Exp(n int) byte {
	if n < 0 {
		panic("gf256: negative exponent")
	}
	return expTable[n%255]
}

// Pow returns a raised to the power n.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*n)%255]
}

// XorSlice computes dst[i] ^= src[i] for every index — the c == 1
// Reed-Solomon lane — eight bytes per iteration over uint64 words.
// dst and src must be the same length.
func XorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: XorSlice length mismatch")
	}
	if n := xorSIMD(src, dst); n > 0 {
		for i := n; i < len(src); i++ {
			dst[i] ^= src[i]
		}
		return
	}
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// XorSliceRef is the scalar reference implementation of XorSlice,
// retained for differential tests and as the benchmark baseline.
func XorSliceRef(src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: XorSliceRef length mismatch")
	}
	for i, s := range src {
		dst[i] ^= s
	}
}

// MulSlice computes dst[i] ^= c * src[i] for every index, the inner
// kernel of Reed-Solomon encoding. dst and src must be the same length.
//
// The hot path works a uint64 word at a time: one 8-byte load of src,
// eight table lookups assembled into a word, then a single 8-byte
// load/XOR/store of dst. The c == 1 lane degenerates to XorSlice.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		XorSlice(src, dst)
		return
	}
	row := mulRow(c)
	if n := mulXorSIMD(c, src, dst); n > 0 {
		for i := n; i < len(src); i++ {
			dst[i] ^= row[src[i]]
		}
		return
	}
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		v := uint64(row[byte(s)]) |
			uint64(row[byte(s>>8)])<<8 |
			uint64(row[byte(s>>16)])<<16 |
			uint64(row[byte(s>>24)])<<24 |
			uint64(row[byte(s>>32)])<<32 |
			uint64(row[byte(s>>40)])<<40 |
			uint64(row[byte(s>>48)])<<48 |
			uint64(row[s>>56])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// MulSliceRef is the scalar reference implementation of MulSlice (one
// table lookup plus XOR per byte), retained for differential tests and
// as the benchmark baseline the word kernel is measured against.
func MulSliceRef(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSliceRef length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	row := mulRow(c)
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// MulSliceAssign computes dst[i] = c * src[i] (overwrite, not
// accumulate) for every index, with the same word-at-a-time hot path
// as MulSlice.
func MulSliceAssign(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSliceAssign length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	row := mulRow(c)
	if n := mulAssignSIMD(c, src, dst); n > 0 {
		for i := n; i < len(src); i++ {
			dst[i] = row[src[i]]
		}
		return
	}
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		v := uint64(row[byte(s)]) |
			uint64(row[byte(s>>8)])<<8 |
			uint64(row[byte(s>>16)])<<16 |
			uint64(row[byte(s>>24)])<<24 |
			uint64(row[byte(s>>32)])<<32 |
			uint64(row[byte(s>>40)])<<40 |
			uint64(row[byte(s>>48)])<<48 |
			uint64(row[s>>56])<<56
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for i := n; i < len(src); i++ {
		dst[i] = row[src[i]]
	}
}

// MulSliceAssignRef is the scalar reference implementation of
// MulSliceAssign, retained for differential tests and benchmarks.
func MulSliceAssignRef(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSliceAssignRef length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	row := mulRow(c)
	for i, s := range src {
		dst[i] = row[s]
	}
}

// mulTables caches the 256-entry multiplication row per coefficient.
// Every row is built eagerly by the init below (64 KiB total) and is
// immutable afterwards, so concurrent readers need no synchronization.
var mulTables [256]*[256]byte

// nibTables caches, per coefficient, the 16 products of each low
// nibble value (entries 0..15) and each high nibble value (16..31).
// By GF(2)-linearity c*x == c*(x&0x0F) ^ c*(x&0xF0), so these 32 bytes
// reproduce the full 256-entry row; the amd64 PSHUFB kernel applies
// them 16 source bytes at a time. 8 KiB total, immutable after init.
var nibTables [256][32]byte

// affTables holds, per coefficient c, multiplication by c as the 8x8
// bit matrix VGF2P8AFFINEQB takes: byte 7-i is the mask of the input
// bits that feed bit i of the product, so bit k of it is bit i of
// c*2^k. The map is GF(2)-linear for any field polynomial, so the
// matrix is exact for 0x11D (GF2P8MULB, by contrast, is fixed to
// 0x11B). 2 KiB total, immutable after init.
var affTables [256]uint64

func init() {
	// Precompute all rows eagerly: 64 KiB total, built once, immutable
	// afterwards, hence safe for concurrent readers.
	for c := 0; c < 256; c++ {
		var row [256]byte
		for x := 0; x < 256; x++ {
			row[x] = Mul(byte(c), byte(x))
		}
		r := row
		mulTables[c] = &r
		for x := 0; x < 16; x++ {
			nibTables[c][x] = row[x]
			nibTables[c][16+x] = row[x<<4]
		}
		for k := 0; k < 8; k++ {
			for i, p := 0, row[1<<k]; i < 8; i++ {
				affTables[c] |= uint64(p>>i&1) << (8*(7-i) + k)
			}
		}
	}
}

func mulRow(c byte) *[256]byte { return mulTables[c] }

// Table returns the full multiplication row for coefficient c:
// Table(c)[x] == Mul(c, x). The returned array must not be modified.
func Table(c byte) *[256]byte { return mulRow(c) }
