package ecc_test

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
	"repro/internal/ecc/interleave"
	"repro/internal/ecc/parity"
	"repro/internal/ecc/reedsolomon"
)

// namedCode is a code under test, the name its subtests run under and
// whether it corrects sparse errors.
type namedCode struct {
	name     string
	code     ecc.Code
	corrects bool
}

func testCodes(t *testing.T) []namedCode {
	t.Helper()
	rs, err := reedsolomon.New(5, 3, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	il, err := interleave.NewSECDED(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []namedCode{
		{"parity8", parity.New(8, 1), false},
		{"hamming8", hamming.New(8, 1), true},
		{"hamming64", hamming.New(64, 1), true},
		{"secded64", hamming.NewSECDED(64, 1), true},
		{"rs-k5-m3", rs, true},
		{"ilsecded4", il, true},
	}
}

// poison fills b with a nonzero pattern so stale scratch contents that
// leak into an output are caught by the byte-compare.
func poison(b []byte) []byte {
	for i := range b {
		b[i] = 0xA5
	}
	return b
}

// TestEncodeToMatchesEncode drives every code's EncodeTo/DecodeTo with
// deliberately dirty, reused dst and scratch buffers across many
// lengths (including partial final blocks/stripes/codewords) and
// requires byte-identical results to the one-shot calls, which start
// from nil dst and scratch.
func TestEncodeToMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lengths := []int{0, 1, 7, 8, 9, 63, 64, 65, 200, 319, 320, 321, 1000, 4096}
	for _, tc := range testCodes(t) {
		c := tc.code
		t.Run(tc.name, func(t *testing.T) {
			var scratch ecc.Scratch
			var dst, ddst []byte
			// Reuse dst/scratch across iterations in descending-then-
			// ascending length order so both grow and shrink paths run.
			for pass := 0; pass < 2; pass++ {
				for _, n := range lengths {
					data := make([]byte, n)
					rng.Read(data)

					want, _ := c.EncodeTo(nil, data, nil)
					dst = poison(ecc.GrowTo(dst, c.EncodedSize(n)))
					got, _ := c.EncodeTo(dst, data, &scratch)
					if !bytes.Equal(got, want) {
						t.Fatalf("n=%d pass=%d: reused EncodeTo differs from one-shot", n, pass)
					}

					wantDec, _, wantRep, wantErr := c.DecodeTo(nil, want, n, nil)
					ddst = poison(ecc.GrowTo(ddst, n))
					gotDec, _, gotRep, gotErr := c.DecodeTo(ddst, got, n, &scratch)
					if !bytes.Equal(gotDec, wantDec) || gotRep != wantRep || !errors.Is(gotErr, wantErr) {
						t.Fatalf("n=%d pass=%d: reused DecodeTo differs from one-shot (rep %+v vs %+v, err %v vs %v)",
							n, pass, gotRep, wantRep, gotErr, wantErr)
					}
					if !bytes.Equal(gotDec, data) {
						t.Fatalf("n=%d pass=%d: clean round trip corrupted data", n, pass)
					}
				}
				// Second pass ascends after the first descends.
				for i, j := 0, len(lengths)-1; i < j; i, j = i+1, j-1 {
					lengths[i], lengths[j] = lengths[j], lengths[i]
				}
			}
		})
	}
}

// TestDecodeToCorrectsWithDirtyScratch flips a bit and checks the *To
// path still corrects it with reused scratch.
func TestDecodeToCorrectsWithDirtyScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range testCodes(t) {
		if !tc.corrects {
			continue
		}
		c := tc.code
		t.Run(tc.name, func(t *testing.T) {
			var scratch ecc.Scratch
			var dst []byte
			data := make([]byte, 777)
			rng.Read(data)
			for trial := 0; trial < 8; trial++ {
				enc, _ := c.EncodeTo(nil, data, &scratch)
				enc[rng.Intn(len(enc))] ^= 1 << rng.Intn(8)
				dst = poison(ecc.GrowTo(dst, len(data)))
				got, _, rep, err := c.DecodeTo(dst, enc, len(data), &scratch)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("trial %d: single flip not corrected", trial)
				}
				if rep.CorrectedBits+rep.CorrectedBlocks == 0 && rep.DetectedBlocks == 0 {
					// The flip may have landed in interleaver padding,
					// which no codeword covers — that's fine.
					continue
				}
			}
		})
	}
}

func TestScratchSlotGrowOnly(t *testing.T) {
	var s ecc.Scratch
	a := s.Slot(3, 100)
	if len(a) != 100 {
		t.Fatalf("slot len = %d, want 100", len(a))
	}
	b := s.Slot(3, 50)
	if len(b) != 50 || &a[0] != &b[0] {
		t.Fatal("shrinking a slot must reuse its storage")
	}
	var nilScratch *ecc.Scratch
	if got := nilScratch.Slot(0, 10); len(got) != 10 {
		t.Fatal("nil scratch must degrade to allocation")
	}
}

// TestCodesReturnTheirOutputsCRC holds every code to the ecc.Code
// contract on its CRC: EncodeTo's is crc32.Checksum of the data, and
// DecodeTo's that of the bytes it hands back, whatever the damage did
// to them: clean, repaired, miscorrected (several flips in one
// codeword) or uncorrectable. Workers > 1 joins the ranges' CRCs.
func TestCodesReturnTheirOutputsCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, workers := range []int{1, 3} {
		rs, err := reedsolomon.New(5, 3, 64, workers)
		if err != nil {
			t.Fatal(err)
		}
		rsPaper, err := reedsolomon.New(241, 15, 1022, workers)
		if err != nil {
			t.Fatal(err)
		}
		il, err := interleave.NewSECDED(4, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			code ecc.Code
		}{
			{"parity8", parity.New(8, workers)}, {"parity3", parity.New(3, workers)},
			{"hamming8", hamming.New(8, workers)}, {"secded64", hamming.NewSECDED(64, workers)},
			{"rs-k5-m3", rs}, {"rs-m15", rsPaper}, {"ilsecded4", il},
		} {
			for _, n := range []int{0, 1, 63, 1000, 4097, 300_001} {
				data := make([]byte, n)
				rng.Read(data)
				enc, crc := tc.code.EncodeTo(nil, data, nil)
				if crc != crc32.Checksum(data, ecc.Castagnoli) {
					t.Fatalf("%s workers=%d n=%d: EncodeTo's CRC is not the data's", tc.name, workers, n)
				}
				for _, flips := range []int{0, 1, 3, 40, 5000} {
					bad := bytes.Clone(enc)
					for f := 0; f < flips && len(bad) > 0; f++ {
						// Runs of three neighbouring bits: a SEC-DED
						// codeword that takes one miscorrects.
						i := rng.Intn(len(bad)*8 - 2)
						for b := i; b < i+3; b++ {
							bad[b/8] ^= 0x80 >> (b % 8)
						}
					}
					out, crc, _, err := tc.code.DecodeTo(poison(make([]byte, n)), bad, n, nil)
					if crc != crc32.Checksum(out, ecc.Castagnoli) {
						t.Fatalf("%s workers=%d n=%d, %d flips: DecodeTo's CRC is not its output's (err %v)",
							tc.name, workers, n, flips, err)
					}
				}
			}
		}
	}
}
