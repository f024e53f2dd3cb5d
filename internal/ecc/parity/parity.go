// Package parity implements ARC's lightest-weight protection: one even
// parity bit per N-byte data block. It detects any odd number of bit
// flips within a block (so all single-bit errors) but corrects nothing,
// matching the paper's ARC_PARITY method.
package parity

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/ecc"
	"repro/internal/parallel"
)

// Code protects data with one even-parity bit per BlockBytes of data.
//
// Encoded layout: the data verbatim, followed by the parity bits packed
// MSB-first (bit for block 0 in the high bit of the first parity byte).
type Code struct {
	// BlockBytes is the number of data bytes covered by each parity
	// bit. Smaller blocks raise overhead and detection granularity.
	BlockBytes int
	// Workers is the parallelism level (0 = GOMAXPROCS).
	Workers int
}

// New returns a parity code with the given block size in bytes.
// It panics when blockBytes is not positive, which indicates a
// programming error in configuration construction.
func New(blockBytes, workers int) *Code {
	if blockBytes <= 0 {
		panic("parity: BlockBytes must be positive")
	}
	return &Code{BlockBytes: blockBytes, Workers: workers}
}

// EncodedSize implements ecc.Code.
func (c *Code) EncodedSize(n int) int {
	return n + (c.blocks(n)+7)/8
}

func (c *Code) blocks(n int) int { return (n + c.BlockBytes - 1) / c.BlockBytes }

// blockParity returns the even-parity bit (0 or 1) over the block.
// The parity of the whole block equals the parity of the XOR-fold of
// its bytes, so the loop folds uint64 lanes and takes one popcount at
// the end instead of walking byte by byte.
func blockParity(block []byte) byte {
	var acc uint64
	n := len(block) &^ 7
	for i := 0; i < n; i += 8 {
		acc ^= binary.LittleEndian.Uint64(block[i:])
	}
	var tail byte
	for _, b := range block[n:] {
		tail ^= b
	}
	return byte((bits.OnesCount64(acc) + bits.OnesCount8(tail)) & 1)
}

// parityByte computes the packed parity byte covering blocks
// pb*8 .. pb*8+7 of data. When every one of those blocks is a full
// 8-byte block (the common interior case for the paper's parity8
// config), each parity bit is one uint64 load and one popcount;
// otherwise it falls back to the general per-block walk.
func (c *Code) parityByte(data []byte, pb, nb int) byte {
	n := len(data)
	var v byte
	if base := pb * 8 * c.BlockBytes; c.BlockBytes == 8 && base+64 <= n {
		for j := 0; j < 8; j++ {
			w := binary.LittleEndian.Uint64(data[base+j*8:])
			v |= byte(bits.OnesCount64(w)&1) << (7 - j)
		}
		return v
	}
	for j := 0; j < 8; j++ {
		b := pb*8 + j
		if b >= nb {
			break
		}
		start := b * c.BlockBytes
		end := start + c.BlockBytes
		if end > n {
			end = n
		}
		if blockParity(data[start:end]) == 1 {
			v |= 0x80 >> j
		}
	}
	return v
}

// EncodeTo implements ecc.Code. Workers own whole parity bytes
// (groups of eight blocks), so no two goroutines write the same byte;
// every output byte is fully assigned, so a reused dst needs no
// clearing.
func (c *Code) EncodeTo(dst, data []byte, _ *ecc.Scratch) []byte {
	n := len(data)
	nb := c.blocks(n)
	out := ecc.GrowTo(dst, c.EncodedSize(n))
	copy(out, data)
	par := out[n:]
	// Serial fast path: a closure handed to parallel.For escapes and
	// would allocate even when it runs inline.
	if parallel.Clamp(c.Workers, len(par)) == 1 {
		c.encodeRange(data, par, 0, len(par), nb)
	} else {
		parallel.For(len(par), c.Workers, func(lo, hi int) {
			c.encodeRange(data, par, lo, hi, nb)
		})
	}
	return out
}

// encodeRange fills parity bytes [lo, hi); safe to run concurrently on
// disjoint ranges.
func (c *Code) encodeRange(data, par []byte, lo, hi, nb int) {
	for pb := lo; pb < hi; pb++ {
		par[pb] = c.parityByte(data, pb, nb)
	}
}

// DecodeTo implements ecc.Code. Parity corrects nothing: if any
// block's parity mismatches, DecodeTo returns the (possibly corrupt)
// data along with ecc.ErrUncorrectable so the caller can decide what
// to salvage.
func (c *Code) DecodeTo(dst, encoded []byte, origLen int, _ *ecc.Scratch) ([]byte, ecc.Report, error) {
	var rep ecc.Report
	if origLen < 0 || len(encoded) < c.EncodedSize(origLen) {
		return nil, rep, fmt.Errorf("%w: need %d bytes, have %d", ecc.ErrTruncated, c.EncodedSize(origLen), len(encoded))
	}
	data := encoded[:origLen]
	par := encoded[origLen:c.EncodedSize(origLen)]
	nb := c.blocks(origLen)
	var detected int64
	// Serial fast path: see EncodeTo. The atomic counter is declared
	// inside the parallel branch so its heap allocation (it is captured
	// by an escaping closure) never taxes the serial path.
	if parallel.Clamp(c.Workers, len(par)) == 1 {
		detected = c.countRange(data, par, 0, len(par), nb)
	} else {
		var adet int64
		parallel.For(len(par), c.Workers, func(lo, hi int) {
			if local := c.countRange(data, par, lo, hi, nb); local > 0 {
				atomic.AddInt64(&adet, local)
			}
		})
		detected = adet
	}
	rep.DetectedBlocks = int(detected)
	out := ecc.GrowTo(dst, origLen)
	copy(out, data)
	if rep.DetectedBlocks > 0 {
		return out, rep, fmt.Errorf("%w: parity mismatch in %d block(s)", ecc.ErrUncorrectable, rep.DetectedBlocks)
	}
	return out, rep, nil
}

// countRange counts mismatched parity bits over parity bytes [lo, hi);
// safe to run concurrently on disjoint ranges.
func (c *Code) countRange(data, par []byte, lo, hi, nb int) int64 {
	local := 0
	for pb := lo; pb < hi; pb++ {
		if diff := c.parityByte(data, pb, nb) ^ par[pb]; diff != 0 {
			local += bits.OnesCount8(diff)
		}
	}
	return int64(local)
}

var _ ecc.Code = (*Code)(nil)
