//go:build !amd64

package reedsolomon

import (
	"hash/crc32"

	"repro/internal/ecc"
)

// crc3 returns the CRC-32C of each of the three ds-byte devices at the
// start of dev.
func crc3(dev []byte, ds int) (uint32, uint32, uint32) {
	a, b, c := dev[:ds], dev[ds:2*ds], dev[2*ds:3*ds]
	return crc32.Checksum(a, ecc.Castagnoli), crc32.Checksum(b, ecc.Castagnoli), crc32.Checksum(c, ecc.Castagnoli)
}
