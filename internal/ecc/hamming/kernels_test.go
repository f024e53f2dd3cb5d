package hamming

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/gf256"
)

// kernelLens is every length up to 1031 — empty inputs, partial
// trailing blocks, short final steps, and the seam where the AVX2
// kernel's pairs of whole steps end and the table steps begin — and
// two buffers large enough for several worker spans.
var kernelLens = append(rangeLens(1032), 4096, 4099)

func rangeLens(n int) []int {
	lens := make([]int, n)
	for i := range lens {
		lens[i] = i
	}
	return lens
}

// forEachTier runs f as a subtest under every gf256 dispatch tier the
// host supports; the K=64 codes take the AVX2 kernel under avx2 and
// every tier above it, and the tables under every other. It fails a
// tier whose kernel choice says otherwise.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range gf256.Tiers() {
		t.Run(tier, func(t *testing.T) {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			vec := tier == gf256.TierAVX2 || tier == gf256.TierGFNI
			if got := NewSECDED(64, 1).vector(); got != vec {
				t.Fatalf("tier %s: the K=64 kernel runs = %v, want %v", tier, got, vec)
			}
			f(t)
		})
	}
}

func kernelCodes() []*Code {
	return []*Code{
		New(8, 1), New(64, 1),
		NewSECDED(8, 1), NewSECDED(64, 1),
		New(8, 4), New(64, 4),
		NewSECDED(8, 4), NewSECDED(64, 4),
	}
}

// name labels c in failure messages.
func name(c *Code) string { return fmt.Sprintf("k=%d extended=%v", c.P.K, c.P.Extended) }

// TestEncodeMatchesRef pins the word-packed check path, under every
// dispatch tier, to the per-bit scalar reference for every code family
// and awkward length.
func TestEncodeMatchesRef(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(10))
		for _, c := range kernelCodes() {
			for _, n := range kernelLens {
				data := make([]byte, n)
				rng.Read(data)
				got, crc := c.EncodeTo(nil, data, nil)
				want := c.EncodeRef(data)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s workers=%d n=%d: Encode diverges from EncodeRef", name(c), c.Workers, n)
				}
				if crc != crc32.Checksum(data, ecc.Castagnoli) {
					t.Fatalf("%s workers=%d n=%d: EncodeTo's CRC is not the data's", name(c), c.Workers, n)
				}
			}
		}
	})
}

// TestDecodeMatchesRef corrupts encodings with random flips — clean,
// correctable, and uncorrectable alike — and requires the word-level
// decode under every dispatch tier to agree with the reference on
// output, report, and error.
func TestDecodeMatchesRef(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, c := range kernelCodes() {
			for _, n := range kernelLens {
				data := make([]byte, n)
				rng.Read(data)
				enc, _ := c.EncodeTo(nil, data, nil)
				for _, flips := range []int{0, 1, 2, 5} {
					cor := append([]byte(nil), enc...)
					for f := 0; f < flips && len(cor) > 0; f++ {
						i := rng.Intn(len(cor) * 8)
						cor[i/8] ^= 0x80 >> (i % 8)
					}
					if _, _, err := decodeBoth(t, c, cor, n, fmt.Sprint(flips, " random flips")); flips == 0 && err != nil {
						t.Fatalf("%s n=%d: clean decode: %v", name(c), n, err)
					}
				}
			}
		}
	})
}

// TestRefRoundTrip keeps the reference implementations honest on their
// own: encode, flip one bit, decode, expect the original back.
func TestRefRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range []*Code{New(64, 1), NewSECDED(64, 1)} {
		data := make([]byte, 256)
		rng.Read(data)
		enc := c.EncodeRef(data)
		i := rng.Intn(len(enc) * 8)
		enc[i/8] ^= 0x80 >> (i % 8)
		out, rep, err := c.DecodeRef(enc, len(data))
		if err != nil {
			t.Fatalf("%s: single flip should correct: %v", name(c), err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("%s: reference round trip corrupted data", name(c))
		}
		if rep.CorrectedBits != 1 {
			t.Fatalf("%s: corrected %d bits, want 1", name(c), rep.CorrectedBits)
		}
	}
}

// TestDecodeRefTruncated mirrors Decode's truncation contract.
func TestDecodeRefTruncated(t *testing.T) {
	c := New(64, 1)
	if _, _, err := c.DecodeRef(make([]byte, 3), 64); !errors.Is(err, ecc.ErrTruncated) {
		t.Fatalf("expected ErrTruncated, got %v", err)
	}
}

// decodeBoth runs Decode and DecodeRef on enc and fails unless they
// agree on bytes, report and error class, and Decode's CRC is that of
// its output; it returns Decode's results.
func decodeBoth(t *testing.T, c *Code, enc []byte, n int, what string) ([]byte, ecc.Report, error) {
	t.Helper()
	got, crc, gotRep, gotErr := c.DecodeTo(nil, enc, n, nil)
	want, wantRep, wantErr := c.DecodeRef(enc, n)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s workers=%d n=%d %s: Decode output diverges from DecodeRef", name(c), c.Workers, n, what)
	}
	if crc != crc32.Checksum(got, ecc.Castagnoli) {
		t.Fatalf("%s workers=%d n=%d %s: DecodeTo's CRC is not its output's (err %v)", name(c), c.Workers, n, what, gotErr)
	}
	if gotRep != wantRep {
		t.Fatalf("%s workers=%d n=%d %s: report %+v != %+v", name(c), c.Workers, n, what, gotRep, wantRep)
	}
	if errors.Is(gotErr, ecc.ErrUncorrectable) != errors.Is(wantErr, ecc.ErrUncorrectable) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s workers=%d n=%d %s: error %v != %v", name(c), c.Workers, n, what, gotErr, wantErr)
	}
	return got, gotRep, gotErr
}

// codewordBits lists the stored bits of block b's codeword in an
// encoding of n bytes, as bit offsets into it (MSB-first per byte):
// the data bits the block really has, then its check bits.
func codewordBits(c *Code, n, b int) []int {
	bb := c.blockBytes()
	var pos []int
	for i := b * bb * 8; i < min((b+1)*bb, n)*8; i++ {
		pos = append(pos, i)
	}
	for k := 0; k < c.P.CheckLen; k++ {
		pos = append(pos, n*8+b*c.P.CheckLen+k)
	}
	return pos
}

func flipBit(buf []byte, pos int) { buf[pos/8] ^= 0x80 >> (pos % 8) }

// TestKernelFlipsMatchRef puts every single flip and every double flip
// inside one codeword (data, check and overall bits) and compares
// Decode with DecodeRef under every dispatch tier. The input is nine
// whole steps and a short one ending in a partial block, which four
// workers split into step ranges [0,3) [3,6) [6,8) [8,10); the
// attacked codewords are the eight slots of step 1, the blocks on both
// sides of every range boundary, and the whole short step with the
// block before it. Under avx2 the K=64 codes take steps 0-1, 3-4 and
// 6-7 through the kernel with four workers and 0-7 with one, so the
// boundaries are also seams between the kernel and the tables.
func TestKernelFlipsMatchRef(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, c := range kernelCodes() {
			bb := c.blockBytes()
			n := 9*8*bb + 3*bb + bb*5/8
			nb := c.blocks(n)
			blocks := []int{8, 9, 10, 11, 12, 13, 14, 15, 23, 24, 47, 48, 63, 64}
			for b := 71; b < nb; b++ {
				blocks = append(blocks, b)
			}
			data := make([]byte, n)
			rng.Read(data)
			enc, _ := c.EncodeTo(nil, data, nil)
			cor := make([]byte, len(enc))
			for _, b := range blocks {
				pos := codewordBits(c, n, b)
				for i, p1 := range pos {
					copy(cor, enc)
					flipBit(cor, p1)
					got, rep, err := decodeBoth(t, c, cor, n, "single flip")
					if err != nil || !bytes.Equal(got, data) || rep != (ecc.Report{DetectedBlocks: 1, CorrectedBits: 1, CorrectedBlocks: 1}) {
						t.Fatalf("%s workers=%d block %d bit %d: single flip gave %+v, %v", name(c), c.Workers, b, i, rep, err)
					}
					for _, p2 := range pos[i+1:] {
						flipBit(cor, p2)
						_, rep, err := decodeBoth(t, c, cor, n, "double flip")
						if rep.DetectedBlocks != 1 {
							t.Fatalf("%s workers=%d block %d: double flip detected in %d blocks", name(c), c.Workers, b, rep.DetectedBlocks)
						}
						if c.P.Extended && !errors.Is(err, ecc.ErrUncorrectable) {
							t.Fatalf("%s workers=%d block %d: SEC-DED answered a double flip with %v", name(c), c.Workers, b, err)
						}
						flipBit(cor, p2)
					}
				}
			}
		}
	})
}

// TestPaddingBitSyndromeIsUncorrectable flips every triple of stored
// bits in the trailing codeword of an 11-byte input: three data bytes
// and 40 bits of zero padding that are never stored. A syndrome naming
// a padding bit cannot be one flip — no stored bit lives there — so it
// must be reported, not counted as a correction that changes nothing.
// Whenever Decode returns no error, its output re-encoded is the
// received word with exactly the corrected bits changed. The input is
// shorter than the AVX2 kernel's 128 bytes, so every tier decodes it
// through the tables.
func TestPaddingBitSyndromeIsUncorrectable(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		const n = 11
		data := []byte("padding bit")
		for _, c := range []*Code{New(64, 1), NewSECDED(64, 1)} {
			enc, _ := c.EncodeTo(nil, data, nil)
			pos := codewordBits(c, n, 1)
			cor := make([]byte, len(enc))
			named := 0
			for i, p1 := range pos {
				for j, p2 := range pos[i+1:] {
					for _, p3 := range pos[i+1+j+1:] {
						copy(cor, enc)
						flipBit(cor, p1)
						flipBit(cor, p2)
						flipBit(cor, p3)
						// The block as decodeBlock sees it: does its
						// syndrome name a data bit past the three stored bytes?
						var blk [8]byte
						copy(blk[:], cor[8:n])
						stored := uint16(readBits(cor[n:], c.P.CheckLen, c.P.CheckLen))
						syn := int(stored&(1<<c.P.R-1)) ^ int(c.P.checkBits(binary.LittleEndian.Uint64(blk[:])))
						padding := syn <= c.P.N && c.P.posToBit[syn] >= 8*(n-8)
						got, rep, err := decodeBoth(t, c, cor, n, "triple flip")
						if padding {
							named++
							if !errors.Is(err, ecc.ErrUncorrectable) || rep.CorrectedBits != 0 {
								t.Fatalf("%s flips %d,%d,%d: syndrome %d names a padding bit, got %+v, %v", name(c), p1, p2, p3, syn, rep, err)
							}
						}
						if err != nil {
							continue
						}
						dist := 0
						reenc, _ := c.EncodeTo(nil, got, nil)
						for k, x := range reenc {
							dist += bits.OnesCount8(x ^ cor[k])
						}
						if dist != rep.CorrectedBits {
							t.Fatalf("%s flips %d,%d,%d: %d bit(s) reported corrected, output is %d bit(s) from the received word", name(c), p1, p2, p3, rep.CorrectedBits, dist)
						}
					}
				}
			}
			if named == 0 {
				t.Fatalf("%s: no triple flip produced a padding-bit syndrome", name(c))
			}
			t.Logf("%s: %d of the triple flips name a padding bit", name(c), named)
		}
	})
}

// FuzzHammingKernel is the differential fuzz of the step kernel, under
// every dispatch tier, against the per-block references: Encode ==
// EncodeRef on the first length bytes of data, and after the flips
// (pairs of bytes, a bit offset each) Decode ≡ DecodeRef on bytes,
// report and error class.
func FuzzHammingKernel(f *testing.F) {
	f.Add([]byte("hamming kernel"), uint16(11), []byte{0, 3, 0, 90}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xA5, 0x3C}, 300), uint16(577), []byte{1, 0, 1, 1, 18, 7}, uint8(7))
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
			if !bytes.Equal(enc, want) {
				t.Fatalf("%s workers=%d n=%d %s: Encode diverges from EncodeRef", name(c), c.Workers, len(data), tier)
			}
			if crc != crc32.Checksum(data, ecc.Castagnoli) {
				t.Fatalf("%s workers=%d n=%d %s: EncodeTo's CRC is not the data's", name(c), c.Workers, len(data), tier)
			}
			for f := flips; len(f) >= 2 && len(enc) > 0; f = f[2:] {
				flipBit(enc, int(binary.BigEndian.Uint16(f))%(len(enc)*8))
			}
			if _, _, err := decodeBoth(t, c, enc, len(data), "fuzz "+tier); err != nil && !errors.Is(err, ecc.ErrUncorrectable) {
				t.Fatalf("%s n=%d %s: a full-length encoding decoded to %v", name(c), len(data), tier, err)
			}
			restore()
		}
	})
}
