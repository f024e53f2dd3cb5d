package reedsolomon

import (
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/gf256"
)

// TestCRC3MatchesChecksum holds crc3, under every gf256 tier, to
// crc32.Checksum of each of its three devices: lengths either side of
// the kernel's 8-byte words, and devices at every alignment.
func TestCRC3MatchesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 3*1100+8)
	rng.Read(buf)
	for _, tier := range gf256.Tiers() {
		restore, err := gf256.ForceTier(tier)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= 1030; n += 1 + n/64 {
			for off := 0; off < 8; off++ {
				a, b, c := buf[off:off+n], buf[off+n:off+2*n], buf[off+2*n:off+3*n]
				ga, gb, gc := crc3(buf[off:], n)
				if ga != crc32.Checksum(a, ecc.Castagnoli) || gb != crc32.Checksum(b, ecc.Castagnoli) || gc != crc32.Checksum(c, ecc.Castagnoli) {
					t.Fatalf("tier %s, %d-byte devices at offset %d: crc3 differs from crc32.Checksum", tier, n, off)
				}
			}
		}
		restore()
	}
}
