package ecc_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
	"repro/internal/ecc/interleave"
	"repro/internal/ecc/parity"
	"repro/internal/ecc/reedsolomon"
	"repro/internal/raceflag"
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
// codeword) or uncorrectable. It also holds each code to one answer at
// every worker count: the same stream from the same data, and from the
// same damaged stream the same bytes, CRC, Report and error. Above
// 4 KiB the ranges of workers > 1 end inside a piece (4 KiB of data)
// or leave a final stripe short.
func TestCodesReturnTheirOutputsCRC(t *testing.T) {
	sizes := []int{0, 1, 63, 1000, 4097, 300_001}
	if raceflag.Enabled {
		// The detector slows hamming's word path about 50x; the largest
		// size still cuts rs-k5-m3 and secded64 into several ranges.
		sizes = []int{0, 1, 63, 1000, 4097, 12_001}
	}
	workers := []int{1, 2, 3, 7}
	names := []string{"parity8", "parity3", "hamming8", "secded64", "rs-k5-m3", "rs-m15", "ilsecded4"}
	codes := make([][]ecc.Code, len(workers)) // codes[i][j]: names[j] at workers[i]
	for i, w := range workers {
		rs, err := reedsolomon.New(5, 3, 64, w)
		if err != nil {
			t.Fatal(err)
		}
		rsPaper, err := reedsolomon.New(241, 15, 1022, w)
		if err != nil {
			t.Fatal(err)
		}
		il, err := interleave.NewSECDED(4, w)
		if err != nil {
			t.Fatal(err)
		}
		codes[i] = []ecc.Code{parity.New(8, w), parity.New(3, w), hamming.New(8, w), hamming.NewSECDED(64, w), rs, rsPaper, il}
	}
	rng := rand.New(rand.NewSource(53))
	var s ecc.Scratch
	for j, name := range names {
		for _, n := range sizes {
			data := make([]byte, n)
			rng.Read(data)
			enc, crc := codes[0][j].EncodeTo(nil, data, nil)
			if crc != crc32.Checksum(data, ecc.Castagnoli) {
				t.Fatalf("%s n=%d: EncodeTo's CRC is not the data's", name, n)
			}
			for i := 1; i < len(workers); i++ {
				got, gotCRC := codes[i][j].EncodeTo(poison(make([]byte, len(enc))), data, &s)
				if !bytes.Equal(got, enc) || gotCRC != crc {
					t.Fatalf("%s n=%d: EncodeTo with %d workers differs from one worker's", name, n, workers[i])
				}
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
				var want []byte
				var wantCRC uint32
				var wantRep ecc.Report
				var wantErr string
				for i, c := range codes {
					out, crc, rep, err := c[j].DecodeTo(poison(make([]byte, n)), bad, n, &s)
					if crc != crc32.Checksum(out, ecc.Castagnoli) {
						t.Fatalf("%s workers=%d n=%d, %d flips: DecodeTo's CRC is not its output's (err %v)",
							name, workers[i], n, flips, err)
					}
					if i == 0 {
						want, wantCRC, wantRep, wantErr = out, crc, rep, fmt.Sprint(err)
					} else if !bytes.Equal(out, want) || crc != wantCRC || rep != wantRep || fmt.Sprint(err) != wantErr {
						t.Fatalf("%s n=%d, %d flips: DecodeTo with %d workers (report %+v, err %v) differs from one worker's (report %+v, err %s)",
							name, n, flips, workers[i], rep, err, wantRep, wantErr)
					}
				}
			}
		}
	}
}
