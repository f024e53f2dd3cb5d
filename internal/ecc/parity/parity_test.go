package parity

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ecc"
)

func TestRoundTripClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bb := range []int{1, 2, 4, 8, 16, 64} {
		for _, n := range []int{0, 1, 7, 8, 9, 100, 4096, 4097} {
			data := make([]byte, n)
			rng.Read(data)
			c := New(bb, 1)
			enc, _ := c.EncodeTo(nil, data, nil)
			if len(enc) != c.EncodedSize(n) {
				t.Fatalf("bb=%d n=%d: EncodedSize mismatch", bb, n)
			}
			got, _, rep, err := c.DecodeTo(nil, enc, n, nil)
			if err != nil {
				t.Fatalf("bb=%d n=%d: clean decode failed: %v", bb, n, err)
			}
			if rep.DetectedBlocks != 0 {
				t.Fatalf("clean decode detected %d", rep.DetectedBlocks)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("bb=%d n=%d: data mismatch", bb, n)
			}
		}
	}
}

func TestDetectsEverySingleBitFlip(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45}
	c := New(2, 1)
	enc, _ := c.EncodeTo(nil, data, nil)
	for bit := 0; bit < len(enc)*8; bit++ {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		_, _, rep, err := c.DecodeTo(nil, mut, len(data), nil)
		if err == nil {
			t.Fatalf("bit %d flip went undetected", bit)
		}
		if !errors.Is(err, ecc.ErrUncorrectable) {
			t.Fatalf("bit %d: wrong error %v", bit, err)
		}
		if rep.DetectedBlocks == 0 {
			t.Fatalf("bit %d: report shows no detection", bit)
		}
	}
}

func TestMissesEvenErrorsInOneBlock(t *testing.T) {
	// The documented weakness: two flips in the same block cancel.
	data := make([]byte, 16)
	c := New(16, 1)
	enc, _ := c.EncodeTo(nil, data, nil)
	enc[0] ^= 0x01
	enc[5] ^= 0x01
	_, _, rep, err := c.DecodeTo(nil, enc, len(data), nil)
	if err != nil {
		t.Fatalf("double error in one block should be missed, got %v", err)
	}
	if rep.DetectedBlocks != 0 {
		t.Fatal("double error unexpectedly detected")
	}
}

func TestDetectsOddErrorsAcrossBlocks(t *testing.T) {
	data := make([]byte, 32)
	c := New(8, 1)
	enc, _ := c.EncodeTo(nil, data, nil)
	enc[0] ^= 0x01  // block 0
	enc[9] ^= 0x01  // block 1
	enc[17] ^= 0x01 // block 2
	_, _, rep, err := c.DecodeTo(nil, enc, len(data), nil)
	if err == nil {
		t.Fatal("three flips across blocks must be detected")
	}
	if rep.DetectedBlocks != 3 {
		t.Fatalf("detected %d blocks, want 3", rep.DetectedBlocks)
	}
}

func TestTruncatedStream(t *testing.T) {
	c := New(8, 1)
	enc, _ := c.EncodeTo(nil, make([]byte, 64), nil)
	if _, _, _, err := c.DecodeTo(nil, enc[:len(enc)-1], 64, nil); !errors.Is(err, ecc.ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 100_003)
	rng.Read(data)
	serial, _ := New(8, 1).EncodeTo(nil, data, nil)
	for _, w := range []int{2, 3, 8} {
		par, _ := New(8, w).EncodeTo(nil, data, nil)
		if !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d produced different encoding", w)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := New(4, 2)
	prop := func(data []byte) bool {
		enc, _ := c.EncodeTo(nil, data, nil)
		got, _, _, err := c.DecodeTo(nil, enc, len(data), nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSingleFlipDetected(t *testing.T) {
	c := New(8, 1)
	prop := func(data []byte, where uint16) bool {
		if len(data) == 0 {
			return true
		}
		enc, _ := c.EncodeTo(nil, data, nil)
		bit := int(where) % (len(enc) * 8)
		enc[bit/8] ^= 0x80 >> (bit % 8)
		_, _, _, err := c.DecodeTo(nil, enc, len(data), nil)
		return errors.Is(err, ecc.ErrUncorrectable)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 1) should panic")
		}
	}()
	New(0, 1)
}
