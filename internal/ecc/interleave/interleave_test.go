package interleave

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewSECDED(1, 1); err == nil {
		t.Fatal("depth 1 must fail")
	}
	if _, err := NewSECDED(0, 1); err == nil {
		t.Fatal("depth 0 must fail")
	}
	c, err := NewSECDED(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth != 64 {
		t.Fatalf("depth %d", c.Depth)
	}
}

func TestRoundTripClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, depth := range []int{2, 16, 64, 256} {
		c, err := NewSECDED(depth, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, depth - 1, depth, depth + 1, 10_000} {
			data := make([]byte, n)
			rng.Read(data)
			enc := c.EncodeTo(nil, data, nil)
			if len(enc) != c.EncodedSize(n) {
				t.Fatalf("depth=%d n=%d: size mismatch", depth, n)
			}
			if len(enc)%depth != 0 {
				t.Fatal("encoded size must be a multiple of depth")
			}
			got, rep, err := c.DecodeTo(nil, enc, n, nil)
			if err != nil {
				t.Fatalf("depth=%d n=%d: %v", depth, n, err)
			}
			if rep.DetectedBlocks != 0 {
				t.Fatal("clean decode flagged errors")
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("depth=%d n=%d: mismatch", depth, n)
			}
		}
	}
}

func TestCorrectsBurstUpToDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	depth := 64
	c, err := NewSECDED(depth, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32<<10)
	rng.Read(data)
	enc := c.EncodeTo(nil, data, nil)
	for trial := 0; trial < 50; trial++ {
		mut := append([]byte(nil), enc...)
		off := rng.Intn(len(mut) - depth)
		// A full-depth burst with every byte fully corrupted — the
		// worst case a failing DRAM device produces.
		for i := 0; i < depth; i++ {
			mut[off+i] ^= byte(1 + rng.Intn(255))
		}
		got, rep, err := c.DecodeTo(nil, mut, len(data), nil)
		if err != nil {
			t.Fatalf("trial %d: burst not corrected: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: mismatch", trial)
		}
		if rep.CorrectedBlocks == 0 {
			t.Fatal("no corrections reported")
		}
	}
}

func TestPlainSECDEDFailsSameBurst(t *testing.T) {
	// The motivating contrast: without interleaving the same burst
	// defeats SEC-DED.
	rng := rand.New(rand.NewSource(3))
	plain := hamming.NewSECDED(64, 1)
	data := make([]byte, 32<<10)
	rng.Read(data)
	enc := plain.EncodeTo(nil, data, nil)
	failed := false
	for trial := 0; trial < 20 && !failed; trial++ {
		mut := append([]byte(nil), enc...)
		off := rng.Intn(len(mut) - 64)
		for i := 0; i < 64; i++ {
			mut[off+i] ^= byte(1 << rng.Intn(8))
		}
		if _, _, err := plain.DecodeTo(nil, mut, len(data), nil); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("plain secded should fail a 64-byte burst")
	}
}

func TestSingleFlipStillCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, err := NewSECDED(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	rng.Read(data)
	enc := c.EncodeTo(nil, data, nil)
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), enc...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		got, _, err := c.DecodeTo(nil, mut, len(data), nil)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("trial %d: single flip not corrected: %v", trial, err)
		}
	}
}

func TestTruncated(t *testing.T) {
	c, err := NewSECDED(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := c.EncodeTo(nil, make([]byte, 1000), nil)
	if _, _, err := c.DecodeTo(nil, enc[:len(enc)-1], 1000, nil); !errors.Is(err, ecc.ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c, err := NewSECDED(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(data []byte) bool {
		enc := c.EncodeTo(nil, data, nil)
		got, _, err := c.DecodeTo(nil, enc, len(data), nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveIsBitPermutation(t *testing.T) {
	// Whitebox: bit interleaving is a pure permutation — the total
	// population count is preserved (padding contributes zeros).
	c, err := NewSECDED(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	inner := hamming.NewSECDED(64, 1).EncodeTo(nil, data, nil)
	outer := c.EncodeTo(nil, data, nil)
	pop := func(buf []byte) int {
		n := 0
		for _, b := range buf {
			n += bits.OnesCount8(b)
		}
		return n
	}
	if pop(inner) != pop(outer) {
		t.Fatalf("population count changed: %d -> %d", pop(inner), pop(outer))
	}
}

func TestSameCodewordBitsSpreadFarApart(t *testing.T) {
	// The guarantee behind burst correction: after interleaving, any
	// two bits of one codeword are >= 8*Depth output positions apart.
	depth := 8
	c, err := NewSECDED(depth, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 16 << 10 // cols >> 73
	rows := 8 * depth
	cols := c.EncodedSize(n) * 8 / rows
	for _, cw := range []int{0, 7, 100, cwCount(n) - 1} {
		var positions []int
		for b := cw * cwLen * 8; b < (cw+1)*cwLen*8; b++ {
			row, col := b/cols, b%cols
			positions = append(positions, col*rows+row)
		}
		for i := 0; i < len(positions); i++ {
			for j := i + 1; j < len(positions); j++ {
				d := positions[i] - positions[j]
				if d < 0 {
					d = -d
				}
				if d < rows {
					t.Fatalf("codeword %d: bits %d apart (< %d)", cw, d, rows)
				}
			}
		}
	}
}
