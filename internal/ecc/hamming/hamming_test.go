package hamming

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ecc"
)

func TestParams(t *testing.T) {
	p8 := NewParams(8, false)
	if p8.R != 4 || p8.N != 12 || p8.CheckLen != 4 {
		t.Fatalf("k=8: got R=%d N=%d CheckLen=%d, want 4/12/4", p8.R, p8.N, p8.CheckLen)
	}
	p8x := NewParams(8, true)
	if p8x.CheckLen != 5 {
		t.Fatalf("k=8 extended CheckLen=%d, want 5", p8x.CheckLen)
	}
	p64 := NewParams(64, false)
	if p64.R != 7 || p64.N != 71 || p64.CheckLen != 7 {
		t.Fatalf("k=64: got R=%d N=%d CheckLen=%d, want 7/71/7", p64.R, p64.N, p64.CheckLen)
	}
	p64x := NewParams(64, true)
	if p64x.CheckLen != 8 {
		t.Fatalf("k=64 extended CheckLen=%d, want 8 (the classic (72,64) code)", p64x.CheckLen)
	}
}

func TestParamsUnsupportedWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewParams(16, false) should panic")
		}
	}()
	NewParams(16, false)
}

func TestRoundTripClean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{8, 64} {
		for _, ext := range []bool{false, true} {
			for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
				c := &Code{P: NewParams(k, ext), Workers: 1}
				data := make([]byte, n)
				rng.Read(data)
				enc, _ := c.EncodeTo(nil, data, nil)
				if len(enc) != c.EncodedSize(n) {
					t.Fatalf("k=%d ext=%v n=%d: size mismatch", k, ext, n)
				}
				got, _, rep, err := c.DecodeTo(nil, enc, n, nil)
				if err != nil {
					t.Fatalf("k=%d ext=%v n=%d: %v", k, ext, n, err)
				}
				if rep.DetectedBlocks != 0 {
					t.Fatalf("clean decode flagged %d blocks", rep.DetectedBlocks)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("k=%d ext=%v n=%d: data mismatch", k, ext, n)
				}
			}
		}
	}
}

func TestCorrectsEverySingleBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{8, 64} {
		for _, ext := range []bool{false, true} {
			c := &Code{P: NewParams(k, ext), Workers: 1}
			data := make([]byte, 24)
			rng.Read(data)
			enc, _ := c.EncodeTo(nil, data, nil)
			// Bits past usedBits are padding in the final check byte;
			// flips there are invisible (and harmless).
			usedBits := len(data)*8 + c.blocks(len(data))*c.P.CheckLen
			for bit := 0; bit < len(enc)*8; bit++ {
				mut := make([]byte, len(enc))
				copy(mut, enc)
				mut[bit/8] ^= 0x80 >> (bit % 8)
				got, _, rep, err := c.DecodeTo(nil, mut, len(data), nil)
				if err != nil {
					t.Fatalf("k=%d ext=%v bit=%d: single flip not corrected: %v", k, ext, bit, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("k=%d ext=%v bit=%d: wrong correction", k, ext, bit)
				}
				wantCorrected := 1
				if bit >= usedBits {
					wantCorrected = 0
				}
				if rep.CorrectedBlocks != wantCorrected {
					t.Fatalf("k=%d ext=%v bit=%d: corrected %d blocks, want %d", k, ext, bit, rep.CorrectedBlocks, wantCorrected)
				}
			}
		}
	}
}

func TestExtendedDetectsDoubleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{8, 64} {
		c := &Code{P: NewParams(k, true), Workers: 1}
		data := make([]byte, k/8) // exactly one block
		rng.Read(data)
		enc, _ := c.EncodeTo(nil, data, nil)
		totalBits := len(enc) * 8
		trials := 0
		for t1 := 0; t1 < totalBits && trials < 300; t1++ {
			for t2 := t1 + 1; t2 < totalBits && trials < 300; t2 += 3 {
				mut := make([]byte, len(enc))
				copy(mut, enc)
				mut[t1/8] ^= 0x80 >> (t1 % 8)
				mut[t2/8] ^= 0x80 >> (t2 % 8)
				got, _, _, err := c.DecodeTo(nil, mut, len(data), nil)
				trials++
				if err == nil && !bytes.Equal(got, data) {
					t.Fatalf("k=%d flips (%d,%d): silent miscorrection — SEC-DED must detect doubles", k, t1, t2)
				}
				if err != nil && !errors.Is(err, ecc.ErrUncorrectable) {
					t.Fatalf("wrong error type: %v", err)
				}
			}
		}
	}
}

func TestPlainHammingMiscorrectsSomeDoubles(t *testing.T) {
	// Documents the known weakness that motivates SEC-DED: plain
	// Hamming applied to a double error either miscorrects or flags it,
	// but cannot reliably detect.
	c := New(8, 1)
	data := []byte{0xA5}
	enc, _ := c.EncodeTo(nil, data, nil)
	sawMiscorrection := false
	total := len(enc) * 8
	for t1 := 0; t1 < total; t1++ {
		for t2 := t1 + 1; t2 < total; t2++ {
			mut := make([]byte, len(enc))
			copy(mut, enc)
			mut[t1/8] ^= 0x80 >> (t1 % 8)
			mut[t2/8] ^= 0x80 >> (t2 % 8)
			got, _, _, err := c.DecodeTo(nil, mut, 1, nil)
			if err == nil && !bytes.Equal(got, data) {
				sawMiscorrection = true
			}
		}
	}
	if !sawMiscorrection {
		t.Fatal("expected plain Hamming to miscorrect at least one double error")
	}
}

func TestTruncated(t *testing.T) {
	c := New(64, 1)
	enc, _ := c.EncodeTo(nil, make([]byte, 128), nil)
	if _, _, _, err := c.DecodeTo(nil, enc[:len(enc)-1], 128, nil); !errors.Is(err, ecc.ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 100_003)
	rng.Read(data)
	for _, k := range []int{8, 64} {
		for _, ext := range []bool{false, true} {
			serial, scrc := (&Code{P: NewParams(k, ext), Workers: 1}).EncodeTo(nil, data, nil)
			for _, w := range []int{2, 5} {
				par, pcrc := (&Code{P: NewParams(k, ext), Workers: w}).EncodeTo(nil, data, nil)
				if !bytes.Equal(serial, par) || pcrc != scrc {
					t.Fatalf("k=%d ext=%v workers=%d: encoding differs", k, ext, w)
				}
			}
		}
	}
}

func TestQuickSingleFlipAlwaysCorrected(t *testing.T) {
	c := &Code{P: NewParams(64, true), Workers: 2}
	prop := func(data []byte, where uint32) bool {
		if len(data) == 0 {
			return true
		}
		enc, _ := c.EncodeTo(nil, data, nil)
		bit := int(where) % (len(enc) * 8)
		enc[bit/8] ^= 0x80 >> (bit % 8)
		got, _, _, err := c.DecodeTo(nil, enc, len(data), nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitHelpersRoundTrip(t *testing.T) {
	prop := func(v uint16, widthSeed uint8) bool {
		width := 1 + int(widthSeed)%16
		val := uint64(v) & ((1 << width) - 1)
		buf := make([]byte, 8)
		writeBits(buf, 5, val, width)
		return readBits(buf, 5, width) == val
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSyndromePointsAtFlippedPosition(t *testing.T) {
	// Whitebox invariant: flipping data bit i changes the check bits by
	// exactly the positional code of that bit.
	p := NewParams(64, false)
	var data uint64 = 0x0123456789ABCDEF
	base := p.checkBits(data)
	for i := 0; i < 64; i++ {
		got := p.checkBits(data ^ (1 << i))
		if int(base^got) != p.dataPos[i] {
			t.Fatalf("bit %d: syndrome %d, want position %d", i, base^got, p.dataPos[i])
		}
	}
}
