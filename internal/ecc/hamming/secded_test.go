package hamming

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ecc"
)

func TestSingleErrorCorrectedDoubleDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewSECDED(64, 1)
	data := make([]byte, 64)
	rng.Read(data)
	enc := c.EncodeTo(nil, data, nil)

	// Single flip anywhere: corrected.
	for trial := 0; trial < 200; trial++ {
		bit := rng.Intn(len(enc) * 8)
		mut := append([]byte(nil), enc...)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		got, rep, err := c.DecodeTo(nil, mut, len(data), nil)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("single flip at %d not corrected: %v", bit, err)
		}
		if rep.CorrectedBlocks != 1 {
			t.Fatalf("expected exactly 1 corrected block, got %d", rep.CorrectedBlocks)
		}
	}

	// Double flip within one 8-byte block: detected, never silently
	// miscorrected.
	for trial := 0; trial < 200; trial++ {
		blockStart := (rng.Intn(len(data)/8) * 8) * 8 // bit offset of a data block
		b1 := blockStart + rng.Intn(64)
		b2 := blockStart + rng.Intn(64)
		if b1 == b2 {
			continue
		}
		mut := append([]byte(nil), enc...)
		mut[b1/8] ^= 0x80 >> (b1 % 8)
		mut[b2/8] ^= 0x80 >> (b2 % 8)
		got, _, err := c.DecodeTo(nil, mut, len(data), nil)
		if err == nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("double flip (%d, %d) silently miscorrected", b1, b2)
			}
			continue
		}
		if !errors.Is(err, ecc.ErrUncorrectable) {
			t.Fatalf("wrong error: %v", err)
		}
	}
}

func TestErrorsInDifferentBlocksAllCorrected(t *testing.T) {
	// SEC-DED corrects one error per codeword, so flips in distinct
	// blocks are all repairable — this is why ARC's 1-error-per-MB
	// resiliency constraint maps to SEC-DED over 8-byte blocks.
	rng := rand.New(rand.NewSource(10))
	c := NewSECDED(64, 1)
	data := make([]byte, 1024)
	rng.Read(data)
	enc := c.EncodeTo(nil, data, nil)
	// Flip one bit in each of ten distinct data blocks.
	for b := 0; b < 10; b++ {
		bit := (b*13)*64 + rng.Intn(64)
		enc[bit/8] ^= 0x80 >> (bit % 8)
	}
	got, rep, err := c.DecodeTo(nil, enc, len(data), nil)
	if err != nil {
		t.Fatalf("distinct-block errors should all correct: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrected output mismatch")
	}
	if rep.CorrectedBlocks != 10 {
		t.Fatalf("corrected %d blocks, want 10", rep.CorrectedBlocks)
	}
}
