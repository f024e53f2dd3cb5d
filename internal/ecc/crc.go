package ecc

import "hash/crc32"

// The CRC-32C every code returns beside its output (Code.EncodeTo,
// Code.DecodeTo) is taken where the code already holds the bytes, a
// piece or a device at a time, and the pieces' CRCs are joined here.
// CRC-32C is linear: for B of n bytes,
//
//	crc(A‖B) = crc(A)·x^(8n) mod P  ^  crc(B)
//
// (zlib's crc32_combine, P the Castagnoli polynomial), so a join costs
// one multiplication modulo P and no pass over the bytes.

// Castagnoli is the CRC-32C table. Go computes CRC-32C with the CPU's
// CRC instruction where there is one.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcPoly is the Castagnoli polynomial in the reflected bit order the
// CRC itself uses: x^0 is the most significant bit.
const crcPoly = 0x82f63b78

// mulModP returns a·b mod P of two polynomials in the reflected bit
// order. It stops after a's last term.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; a != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			a ^= m
		}
		b = b>>1 ^ crcPoly&-(b&1) // b·x
	}
	return p
}

// x2k[k] is x^(2^k) mod P, for every k xPow8n reaches: 3 plus the
// bits of an int.
var x2k = func() (t [3 + 64]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = mulModP(p, p)
	}
	return t
}()

// xPow8n returns x^(8n) mod P: the factor that appending n bytes
// applies to the CRC of what came before them.
func xPow8n(n int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = mulModP(x2k[k], p)
		}
	}
	return p
}

// CombineCRC returns the CRC-32C of A‖B from crcA = CRC-32C(A),
// crcB = CRC-32C(B) and n = len(B). With crcA = 0 it returns crcB, and
// with n = 0 and crcB = 0 it returns crcA. Its cost grows with the
// number of set bits in n, not with n; a join repeated at one length
// takes a CRCShift instead.
func CombineCRC(crcA, crcB uint32, n int) uint32 {
	return mulModP(xPow8n(n), crcA) ^ crcB
}

// A CRCShift is CombineCRC for one length n of B, as four byte tables:
// multiplying by x^(8n) mod P is linear in crcA, so the product is the
// xor of one entry per byte of crcA. It is immutable once built. A
// Reed-Solomon code builds one for its device size and keeps it; no
// table is shared, so a forged device size in a header costs one build
// (about a microsecond) and not memory that outlives the code.
type CRCShift struct {
	tab [4][256]uint32
}

// Init makes s the CRCShift for length n.
func (s *CRCShift) Init(n int) {
	// The entry for bit p of crcA is x^(8n)·x^(31-p): from p = 31 down,
	// each is the one before times x, a shift and a conditional xor.
	v := xPow8n(n)
	for p := 31; p >= 0; p-- {
		s.tab[p/8][1<<(p%8)] = v
		v = v>>1 ^ crcPoly&-(v&1)
	}
	for i := range s.tab {
		t := &s.tab[i]
		for b := 1; b < 256; b <<= 1 {
			for j := 1; j < b; j++ {
				t[b+j] = t[b] ^ t[j]
			}
		}
	}
}

// Combine returns CombineCRC(crcA, crcB, n) for the shift's n.
func (s *CRCShift) Combine(crcA, crcB uint32) uint32 {
	return s.tab[0][byte(crcA)] ^ s.tab[1][byte(crcA>>8)] ^ s.tab[2][byte(crcA>>16)] ^ s.tab[3][crcA>>24] ^ crcB
}
