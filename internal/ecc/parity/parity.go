// Package parity implements ARC's lightest-weight protection: one even
// parity bit per N-byte data block. It detects any odd number of bit
// flips within a block (so all single-bit errors) but corrects nothing,
// matching the paper's ARC_PARITY method. While gf256 dispatches to its
// avx2 tier, 8-byte blocks take an AVX2 kernel (parityBytesAVX2) for
// every parity byte whose 64 data bytes all exist.
package parity

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/ecc"
	"repro/internal/gf256"
)

// Code protects data with one even-parity bit per BlockBytes of data.
//
// Encoded layout: the data verbatim, followed by the parity bits packed
// MSB-first (bit for block 0 in the high bit of the first parity byte).
type Code struct {
	// BlockBytes is the number of data bytes covered by each parity
	// bit. Smaller blocks raise overhead and detection granularity.
	BlockBytes int
	// Workers is the worker count of each pass, as ecc.Split reads it.
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

// vector reports whether this call takes the AVX2 kernel: 8-byte
// blocks while gf256 dispatches to its avx2 tier or above, so ARC_SIMD
// and gf256.ForceTier choose for both packages.
func (c *Code) vector() bool {
	return c.BlockBytes == 8 && gf256.AtLeast(gf256.LevelAVX2)
}

// kernelEnd is where the kernel's parity bytes end in [lo, hi) of an
// n-byte input: it takes those whose 64 data bytes all exist.
func kernelEnd(lo, hi, n int) int { return max(min(hi, n/64), lo) }

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
// (groups of eight blocks) and the data they cover, so no two
// goroutines write the same byte; every output byte is fully assigned,
// so a reused dst needs no clearing.
func (c *Code) EncodeTo(dst, data []byte, _ *ecc.Scratch) ([]byte, uint32) {
	out := ecc.GrowTo(dst, c.EncodedSize(len(data)))
	p := ecc.Split(c, (*Code).encodeRange, ecc.Args{Dst: out, Src: data}, len(out)-len(data), c.Workers)
	return out, p.CRC
}

// span is the data bytes parity bytes [lo, hi) cover in an n-byte
// input.
func (c *Code) span(lo, hi, n int) (int, int) {
	return lo * 8 * c.BlockBytes, min(hi*8*c.BlockBytes, n)
}

// pieceBytes is how many parity bytes encodeRange and countRange take
// at a time: those of at most 4 KiB of data, so that the CRC-32C of
// the data copied into out finds it in the first-level cache.
func (c *Code) pieceBytes() int { return max(4096/(8*c.BlockBytes), 1) }

// encodeRange copies the data (a.Src) parity bytes [lo, hi) cover into
// the encoded stream a.Dst and fills them, through parityBytesAVX2 when
// vector(), and returns the CRC-32C of that data; safe to run
// concurrently on disjoint ranges.
func (c *Code) encodeRange(a ecc.Args, lo, hi int) ecc.Part {
	data, out := a.Src, a.Dst
	par, nb, vec := out[len(data):], c.blocks(len(data)), c.vector()
	var p ecc.Part
	for step := c.pieceBytes(); lo < hi; lo += step {
		end := min(lo+step, hi)
		pb := lo
		if vec {
			pb = kernelEnd(lo, end, len(data))
			parityBytesAVX2(data[lo*64:pb*64], out[lo*64:pb*64], par[lo:pb])
		}
		from, to := c.span(pb, end, len(data))
		copy(out[from:to], data[from:to])
		for ; pb < end; pb++ {
			par[pb] = c.parityByte(data, pb, nb)
		}
		p.Update(out[lo*8*c.BlockBytes : to])
	}
	return p
}

// DecodeTo implements ecc.Code. Parity corrects nothing: if any
// block's parity mismatches, DecodeTo returns the (possibly corrupt)
// data along with ecc.ErrUncorrectable so the caller can decide what
// to salvage.
func (c *Code) DecodeTo(dst, encoded []byte, origLen int, _ *ecc.Scratch) ([]byte, uint32, ecc.Report, error) {
	if origLen < 0 || len(encoded) < c.EncodedSize(origLen) {
		return nil, 0, ecc.Report{}, fmt.Errorf("%w: need %d bytes, have %d", ecc.ErrTruncated, c.EncodedSize(origLen), len(encoded))
	}
	out := ecc.GrowTo(dst, origLen)
	a := ecc.Args{Dst: out, Src: encoded[:c.EncodedSize(origLen)]}
	p := ecc.Split(c, (*Code).countRange, a, len(a.Src)-origLen, c.Workers)
	return out, p.CRC, p.Report, mismatch(p.Failed)
}

// mismatch is DecodeTo's error for failed blocks whose parity
// mismatches: nil for none.
func mismatch(failed int) error {
	if failed > 0 {
		return fmt.Errorf("%w: parity mismatch in %d block(s)", ecc.ErrUncorrectable, failed)
	}
	return nil
}

// countRange copies the data parity bytes [lo, hi) cover from the
// encoded stream a.Src into a.Dst, counts the bits where their
// recomputed parity, as encodeRange computes it, differs from the
// stored one, and returns the count, as both detected and failed
// blocks, and the CRC-32C of the data copied; safe to run concurrently
// on disjoint ranges.
func (c *Code) countRange(a ecc.Args, lo, hi int) ecc.Part {
	out := a.Dst
	data, par := a.Src[:len(out)], a.Src[len(out):]
	nb, vec := c.blocks(len(data)), c.vector()
	local := 0
	var p ecc.Part
	var got [64]byte // the kernel's parity bytes of one piece (vec: 8-byte blocks)
	for step := c.pieceBytes(); lo < hi; lo += step {
		end := min(lo+step, hi)
		pb := lo
		if vec {
			pb = kernelEnd(lo, end, len(data))
			parityBytesAVX2(data[lo*64:pb*64], out[lo*64:pb*64], got[:pb-lo])
			for i, g := range got[:pb-lo] {
				local += bits.OnesCount8(g ^ par[lo+i])
			}
		}
		from, to := c.span(pb, end, len(data))
		copy(out[from:to], data[from:to])
		for ; pb < end; pb++ {
			if diff := c.parityByte(data, pb, nb) ^ par[pb]; diff != 0 {
				local += bits.OnesCount8(diff)
			}
		}
		p.Update(out[lo*8*c.BlockBytes : to])
	}
	p.Report.DetectedBlocks, p.Failed = local, local
	return p
}

// EncodeRef is the retained per-block reference of EncodeTo, kept as
// the oracle of the differential tests: each block's bit is the parity
// of its bytes' popcounts, set MSB-first. Its output is byte-identical
// to EncodeTo's.
func (c *Code) EncodeRef(data []byte) []byte {
	n := len(data)
	out := make([]byte, c.EncodedSize(n))
	copy(out, data)
	par := out[n:]
	for b := range c.blocks(n) {
		if refParity(data[b*c.BlockBytes:min((b+1)*c.BlockBytes, n)]) == 1 {
			par[b/8] |= 0x80 >> (b % 8)
		}
	}
	return out
}

// DecodeRef is the retained per-block reference of DecodeTo: the same
// output, report and error class. A bit after the last block in the
// final parity byte stands for an empty block, whose parity is 0, so a
// flip there is detected as DecodeTo detects it.
func (c *Code) DecodeRef(encoded []byte, origLen int) ([]byte, ecc.Report, error) {
	var rep ecc.Report
	if origLen < 0 || len(encoded) < c.EncodedSize(origLen) {
		return nil, rep, fmt.Errorf("%w: need %d bytes, have %d", ecc.ErrTruncated, c.EncodedSize(origLen), len(encoded))
	}
	out := make([]byte, origLen)
	copy(out, encoded)
	par := encoded[origLen:c.EncodedSize(origLen)]
	for b := range 8 * len(par) {
		block := out[min(b*c.BlockBytes, origLen):min((b+1)*c.BlockBytes, origLen)]
		if refParity(block) != par[b/8]>>(7-b%8)&1 {
			rep.DetectedBlocks++
		}
	}
	return out, rep, mismatch(rep.DetectedBlocks)
}

// refParity is the parity bit of block, one byte at a time.
func refParity(block []byte) byte {
	ones := 0
	for _, x := range block {
		ones += bits.OnesCount8(x)
	}
	return byte(ones & 1)
}

var _ ecc.Code = (*Code)(nil)
