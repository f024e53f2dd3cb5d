//go:build amd64

package reedsolomon

import (
	"hash/crc32"

	"repro/internal/ecc"
	"repro/internal/gf256"
)

// crc3SSE42 continues the CRC-32C values in crcs over n bytes, a
// multiple of 8, at a, b and c, three at once. Implemented in
// crc_amd64.s.
//
//go:noescape
func crc3SSE42(crcs *[3]uint32, a, b, c *byte, n int)

// crc3 returns the CRC-32C of each of the three ds-byte devices at the
// start of dev. Under gf256's avx2 tier or above (every CPU with AVX2
// has the SSE4.2 CRC instruction) it runs the three as interleaved
// chains: a device of 272 bytes, core's size for a 64 KiB chunk, is
// too short for the three-way split crc32.Checksum makes of buffers of
// 504 bytes and up.
func crc3(dev []byte, ds int) (uint32, uint32, uint32) {
	a, b, c := dev[:ds], dev[ds:2*ds], dev[2*ds:3*ds]
	if !gf256.AtLeast(gf256.LevelAVX2) || ds < 8 {
		return crc32.Checksum(a, ecc.Castagnoli), crc32.Checksum(b, ecc.Castagnoli), crc32.Checksum(c, ecc.Castagnoli)
	}
	var crcs [3]uint32
	w := ds &^ 7
	crc3SSE42(&crcs, &a[0], &b[0], &c[0], w)
	return crc32.Update(crcs[0], ecc.Castagnoli, a[w:]),
		crc32.Update(crcs[1], ecc.Castagnoli, b[w:]),
		crc32.Update(crcs[2], ecc.Castagnoli, c[w:])
}
