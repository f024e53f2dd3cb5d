package parity

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/gf256"
)

// kernelCodes are parity8, which takes the AVX2 kernel under avx2, and
// block sizes that never do, each with one worker and with four.
func kernelCodes() []*Code {
	var codes []*Code
	for _, w := range []int{1, 4} {
		for _, bb := range []int{1, 3, 8, 64} {
			codes = append(codes, New(bb, w))
		}
	}
	return codes
}

// forEachTier runs f as a subtest under every gf256 dispatch tier the
// host supports; parity8 takes the AVX2 kernel under avx2 and every tier
// above it. It fails a tier whose kernel choice says otherwise.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range gf256.Tiers() {
		t.Run(tier, func(t *testing.T) {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			vec := tier == gf256.TierAVX2 || tier == gf256.TierGFNI
			if got := New(8, 1).vector(); got != vec {
				t.Fatalf("tier %s: the parity8 kernel runs = %v, want %v", tier, got, vec)
			}
			f(t)
		})
	}
}

// decodeBoth runs DecodeTo and DecodeRef on enc and fails unless they
// agree on bytes, report and error class, and DecodeTo's CRC is that of
// its output.
func decodeBoth(t *testing.T, c *Code, enc []byte, n int, what string) {
	t.Helper()
	got, crc, gotRep, gotErr := c.DecodeTo(nil, enc, n, nil)
	if crc != crc32.Checksum(got, ecc.Castagnoli) {
		t.Fatalf("bb=%d workers=%d n=%d %s: DecodeTo's CRC is not its output's", c.BlockBytes, c.Workers, n, what)
	}
	want, wantRep, wantErr := c.DecodeRef(enc, n)
	if !bytes.Equal(got, want) || gotRep != wantRep ||
		(gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ecc.ErrUncorrectable) != errors.Is(wantErr, ecc.ErrUncorrectable) {
		t.Fatalf("bb=%d workers=%d n=%d %s: DecodeTo gave %+v, %v; DecodeRef %+v, %v",
			c.BlockBytes, c.Workers, n, what, gotRep, gotErr, wantRep, wantErr)
	}
}

// TestKernelMatchesRef holds EncodeTo and DecodeTo, under every
// dispatch tier, to the per-block references: every length up to 1031
// (the seam where the kernel's 64-byte groups end and the per-byte
// path begins, and partial final blocks), two larger than several
// worker spans, and 0, 1, 2 and 5 random flips.
func TestKernelMatchesRef(t *testing.T) {
	lens := []int{4096, 100_003}
	for n := range 1032 {
		lens = append(lens, n)
	}
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, c := range kernelCodes() {
			for _, n := range lens {
				data := make([]byte, n)
				rng.Read(data)
				enc, crc := c.EncodeTo(nil, data, nil)
				if !bytes.Equal(enc, c.EncodeRef(data)) || crc != crc32.Checksum(data, ecc.Castagnoli) {
					t.Fatalf("bb=%d workers=%d n=%d: EncodeTo diverges from EncodeRef, or its CRC from the data's", c.BlockBytes, c.Workers, n)
				}
				for _, flips := range []int{0, 1, 2, 5} {
					cor := append([]byte(nil), enc...)
					for f := 0; f < flips && len(cor) > 0; f++ {
						i := rng.Intn(len(cor) * 8)
						cor[i/8] ^= 0x80 >> (i % 8)
					}
					decodeBoth(t, c, cor, n, fmt.Sprint(flips, " random flips"))
				}
			}
		}
	})
}

// FuzzParityKernel is the differential fuzz of EncodeTo and DecodeTo
// against the per-block references under every dispatch tier: the
// first length bytes of data, a code (block size and workers) chosen
// by sel, and flips as pairs of bytes, a bit offset each.
func FuzzParityKernel(f *testing.F) {
	f.Add([]byte("parity kernel"), uint16(13), []byte{0, 3, 0, 90}, uint8(2))
	f.Add(bytes.Repeat([]byte{0xA5, 0x3C, 0x0F}, 400), uint16(1100), []byte{1, 0, 1, 1, 18, 7}, uint8(6))
	f.Add([]byte{}, uint16(0), []byte{}, uint8(0))
	codes := kernelCodes()
	f.Fuzz(func(t *testing.T, data []byte, length uint16, flips []byte, sel uint8) {
		c := codes[int(sel)%len(codes)]
		data = data[:int(length)%(len(data)+1)]
		want := c.EncodeRef(data)
		for _, tier := range gf256.Tiers() {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			enc, crc := c.EncodeTo(nil, data, nil)
			if !bytes.Equal(enc, want) || crc != crc32.Checksum(data, ecc.Castagnoli) {
				t.Fatalf("bb=%d workers=%d n=%d %s: EncodeTo diverges from EncodeRef, or its CRC from the data's", c.BlockBytes, c.Workers, len(data), tier)
			}
			for f := flips; len(f) >= 2 && len(enc) > 0; f = f[2:] {
				bit := int(binary.BigEndian.Uint16(f)) % (len(enc) * 8)
				enc[bit/8] ^= 0x80 >> (bit % 8)
			}
			decodeBoth(t, c, enc, len(data), "fuzz "+tier)
			restore()
		}
	})
}
