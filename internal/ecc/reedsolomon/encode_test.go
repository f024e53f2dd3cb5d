package reedsolomon_test

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/reedsolomon"
	"repro/internal/gf256"
	"repro/internal/raceflag"
)

// TestEncodeMatchesMulSliceRef holds EncodeTo, under every gf256 tier
// and with one and three workers, to the per-pair stripe encoder built
// on gf256.MulSliceRef: every Reed-Solomon configuration core offers,
// devices either side of MulRows' 32-byte column, a full stripe and a
// partial final one, into a poisoned reused buffer.
func TestEncodeMatchesMulSliceRef(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, cfg := range core.AllConfigs() {
		if cfg.Method != ecc.MethodReedSolomon {
			continue
		}
		built, err := cfg.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		k, m := built.(*reedsolomon.Code).K, cfg.Param
		for _, ds := range []int{1, 31, 32, 33, 1024} {
			ref, err := reedsolomon.New(k, m, ds, 1)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, k*ds+k*ds/2+1)
			rng.Read(data)
			want := ref.EncodeRef(nil, data, gf256.MulSliceRef)
			for _, tier := range gf256.Tiers() {
				restore, err := gf256.ForceTier(tier)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					c, err := reedsolomon.New(k, m, ds, workers)
					if err != nil {
						t.Fatal(err)
					}
					got, crc := c.EncodeTo(bytes.Repeat([]byte{0xA5}, len(want)), data, nil)
					if !bytes.Equal(got, want) || crc != crc32.Checksum(data, ecc.Castagnoli) {
						t.Errorf("%s (%d+%d), %d-byte devices, tier %s, %d workers: EncodeTo differs from the MulSliceRef encoder, or its CRC from the data's",
							cfg, k, m, ds, tier, workers)
					}
				}
				restore()
			}
		}
	}
}

// TestEncodeAllocFree pins a serial EncodeTo into a kept buffer at zero
// allocations under every tier: the stripe's device lists are stack
// arrays and the tables and CRC shift come prepared from New. The
// device sizes are core's for a 64 KiB chunk (272), for a chunk that
// does not fill its last stripe (1022) and for a full one (1024).
func TestEncodeAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(42)).Read(data)
	for _, ds := range []int{272, 1022, 1024} {
		c, err := reedsolomon.New(241, 15, ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		dst, _ := c.EncodeTo(nil, data, nil)
		for _, tier := range gf256.Tiers() {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(5, func() { dst, _ = c.EncodeTo(dst, data, nil) }); avg != 0 {
				t.Errorf("%d-byte devices, tier %s: EncodeTo into a kept buffer: %.1f allocs/op, want 0", ds, tier, avg)
			}
			restore()
		}
	}
}
