// Package interleave implements a bit interleaver around SEC-DED: a
// permutation of the encoded stream that spreads any burst of up to
// Depth consecutive corrupted bytes so every SEC-DED codeword receives
// at most one corrupted *bit* — which single-error correction repairs.
// This turns the cheap 12.5%-overhead SEC-DED(72,64) into a
// burst-tolerant code, giving ARC's optimizer a low-cost alternative
// to Reed-Solomon for burst-dominated systems (one of the paper's
// "additional ECC algorithms" extension points).
//
// Construction: the SEC-DED(72,64) encoding is regrouped so each
// codeword's 72 bits are contiguous, then the bit string is written as
// the transpose of a (8*Depth) x C bit matrix. Two bits of the same
// codeword are at most 71 positions apart before transposition and at
// least 8*Depth positions apart after it, so a burst shorter than
// Depth bytes — even with every bit of every byte corrupted — touches
// each codeword at most once. (The guarantee needs C >= 73, i.e. a
// stream of at least ~73*Depth bytes; shorter streams still round-trip
// with plain SEC-DED's burst behaviour.)
//
// Interleaving is a pure permutation: overhead is identical to
// SEC-DED's plus at most Depth-1 padding bytes. The bit-granular
// shuffle costs roughly an order of magnitude more CPU than SEC-DED
// alone — the storage-vs-throughput trade the ARC optimizer weighs
// against Reed-Solomon.
package interleave

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
)

// cwData and cwLen describe the SEC-DED(72,64) codeword byte layout.
const (
	cwData = 8          // data bytes per codeword
	cwLen  = cwData + 1 // plus exactly one byte-aligned check byte
)

// Code wraps SEC-DED(72,64) with a depth-Depth-byte bit interleaver.
type Code struct {
	// Depth is the longest single burst (fully corrupted bytes
	// included) the interleaver guarantees to spread to one bit per
	// codeword, for streams of at least ~73x this length.
	Depth int
	inner *hamming.Code
}

// NewSECDED returns an interleaved SEC-DED(72,64) code of the given
// depth (the longest burst, in bytes, the permutation spreads).
func NewSECDED(depth, workers int) (*Code, error) {
	if depth < 2 {
		return nil, fmt.Errorf("interleave: depth must be >= 2, got %d", depth)
	}
	return &Code{Depth: depth, inner: hamming.NewSECDED(64, workers)}, nil
}

// cwCount is the number of codewords covering n data bytes.
func cwCount(n int) int { return (n + cwData - 1) / cwData }

// groupedSize is the codeword-contiguous length in bytes.
func groupedSize(n int) int { return cwCount(n) * cwLen }

// EncodedSize implements ecc.Code: the grouped size padded to a
// multiple of Depth bytes (the bit matrix needs 8*Depth rows).
func (c *Code) EncodedSize(n int) int {
	g := groupedSize(n)
	return (g + c.Depth - 1) / c.Depth * c.Depth
}

// groupInto rearranges a SEC-DED encoding (data region + check region)
// into codeword-contiguous order in g (len groupedSize(origLen)),
// zero-padding the final partial codeword's data bytes explicitly so a
// reused g carries no stale contents.
func groupInto(g, inner []byte, origLen int) {
	cw := cwCount(origLen)
	for x := 0; x < cw; x++ {
		lo := x * cwData
		hi := lo + cwData
		if hi > origLen {
			hi = origLen
		}
		n := copy(g[x*cwLen:x*cwLen+cwData], inner[lo:hi])
		if n < cwData {
			clear(g[x*cwLen+n : x*cwLen+cwData])
		}
		g[x*cwLen+cwData] = inner[origLen+x]
	}
}

// ungroupInto inverts groupInto, filling inner (len origLen+cwCount).
// Every byte of inner is assigned.
func ungroupInto(inner, g []byte, origLen int) {
	cw := cwCount(origLen)
	for x := 0; x < cw; x++ {
		lo := x * cwData
		hi := lo + cwData
		if hi > origLen {
			hi = origLen
		}
		copy(inner[lo:hi], g[x*cwLen:])
		inner[origLen+x] = g[x*cwLen+cwData]
	}
}

// getBit/setBit address bits MSB-first within bytes.
func getBit(buf []byte, i int) byte { return buf[i>>3] >> (7 - i&7) & 1 }

func setBit(buf []byte, i int) { buf[i>>3] |= 0x80 >> (i & 7) }

// Scratch slot indices within the shared ecc.Scratch arena.
const (
	slotInner   = 0 // inner SEC-DED encoding / regrouped inner stream
	slotGrouped = 1 // codeword-contiguous bit string
)

// Encode is EncodeTo(nil, data, nil), kept as the entry point the
// benchmark's ladder times (benchmark/ladder.go).
func (c *Code) Encode(data []byte) []byte {
	return c.EncodeTo(nil, data, nil)
}

// EncodeTo implements ecc.Code. The bit transpose ORs into the
// output, so a reused dst is cleared first.
func (c *Code) EncodeTo(dst, data []byte, s *ecc.Scratch) []byte {
	inner := c.inner.EncodeTo(s.Slot(slotInner, c.inner.EncodedSize(len(data))), data, s)
	g := s.Slot(slotGrouped, groupedSize(len(data)))
	groupInto(g, inner, len(data))
	padded := c.EncodedSize(len(data))
	rows := 8 * c.Depth
	cols := padded * 8 / rows
	out := ecc.GrowTo(dst, padded)
	clear(out)
	// Bit transpose: out bit col*rows+row = g bit row*cols+col. The
	// (row, col) coordinates advance incrementally — no div/mod per
	// bit — and all-zero source bytes skip their eight bit tests
	// entirely (out starts zeroed).
	row, col := 0, 0
	advance := func(n int) {
		col += n
		for col >= cols {
			col -= cols
			row++
		}
	}
	for _, b := range g {
		if b == 0 {
			advance(8)
			continue
		}
		for t := 0; t < 8; t++ {
			if b&(0x80>>t) != 0 {
				setBit(out, col*rows+row)
			}
			advance(1)
		}
	}
	return out
}

// DecodeTo implements ecc.Code. Both intermediate buffers (the
// de-transposed bit string and the regrouped inner stream) are fully
// assigned, so reuse needs no clearing.
func (c *Code) DecodeTo(dst, encoded []byte, origLen int, s *ecc.Scratch) ([]byte, ecc.Report, error) {
	var rep ecc.Report
	want := c.EncodedSize(origLen)
	if origLen < 0 || len(encoded) < want {
		return nil, rep, fmt.Errorf("%w: need %d bytes, have %d", ecc.ErrTruncated, want, len(encoded))
	}
	rows := 8 * c.Depth
	cols := want * 8 / rows
	g := s.Slot(slotGrouped, groupedSize(origLen))
	// Inverse transpose with the same incremental (row, col) walk as
	// EncodeTo; each grouped byte assembles from eight scattered bits.
	row, col := 0, 0
	for k := range g {
		var b byte
		for t := 0; t < 8; t++ {
			b = b<<1 | getBit(encoded, col*rows+row)
			col++
			if col == cols {
				col = 0
				row++
			}
		}
		g[k] = b
	}
	inner := s.Slot(slotInner, origLen+cwCount(origLen))
	ungroupInto(inner, g, origLen)
	return c.inner.DecodeTo(dst, inner, origLen, s)
}

var _ ecc.Code = (*Code)(nil)
