// Package hamming implements ARC's single-error-correcting Hamming
// codes over 8-bit and 64-bit data blocks, plus the extended SEC-DED
// (single-error-correct, double-error-detect) variant: the classical
// (13,8) and (72,64) codes.
//
// Codewords use the classical positional construction: data bits occupy
// the non-power-of-two positions 1..n of a codeword, parity bits the
// power-of-two positions, and the syndrome of a received word equals
// the position of a single flipped bit. The extended variant appends an
// overall parity bit, which separates single errors (correctable) from
// double errors (detectable only).
//
// Encoded layout: the data verbatim, followed by the per-block check
// bits packed MSB-first. Keeping data contiguous means encode is a copy
// plus check-bit computation and decode verifies in place — the layout
// of the protected stream never interleaves.
//
// EncodeTo and DecodeTo work in steps of eight blocks: eight check words
// are 8*CheckLen bits, always whole bytes, and come from byte tables
// (stepCheck). DecodeTo recomputes a step's packed check words, compares
// them with the stored ones in one word compare, and looks at single
// blocks (decodeBlock) only where the two differ. While gf256 dispatches
// to its avx2 tier, the K=64 codes take pairs of whole steps through an
// AVX2 kernel (checkBytesAVX2) instead of the tables.
package hamming

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/ecc"
	"repro/internal/gf256"
)

// Params holds the derived constants for a Hamming code over k data
// bits.
type Params struct {
	K        int         // data bits per block (8 or 64)
	R        int         // parity bits
	N        int         // codeword length K + R
	Extended bool        // SEC-DED: one extra overall parity bit
	CheckLen int         // check bits per block: R (+1 if Extended)
	dataPos  []int       // codeword position of data bit i
	posToBit []int       // codeword position -> data bit index, -1 for parity
	masks    []uint64    // masks[j]: data bits covered by parity j
	tab      [][256]byte // checkTabs[K/64]
}

// NewParams derives the code constants for k data bits. Only k = 8 and
// k = 64 are supported — the two block widths the paper's ARC engine
// offers ("both generate parity bits for one byte or eight byte data
// blocks at a time").
func NewParams(k int, extended bool) *Params {
	if k != 8 && k != 64 {
		panic(fmt.Sprintf("hamming: unsupported data width %d (want 8 or 64)", k))
	}
	r := 0
	for (1 << r) < k+r+1 {
		r++
	}
	p := &Params{K: k, R: r, N: k + r, Extended: extended}
	p.CheckLen = r
	if extended {
		p.CheckLen++
	}
	p.tab = checkTabs[k/64]
	p.dataPos = make([]int, 0, k)
	p.posToBit = make([]int, p.N+1)
	for i := range p.posToBit {
		p.posToBit[i] = -1
	}
	for pos := 1; pos <= p.N; pos++ {
		if pos&(pos-1) == 0 { // power of two: parity position
			continue
		}
		p.posToBit[pos] = len(p.dataPos)
		p.dataPos = append(p.dataPos, pos)
	}
	if len(p.dataPos) != k {
		panic("hamming: internal position accounting error")
	}
	p.masks = make([]uint64, r)
	for j := 0; j < r; j++ {
		var m uint64
		for i, pos := range p.dataPos {
			if pos&(1<<j) != 0 {
				m |= 1 << i
			}
		}
		p.masks[j] = m
	}
	return p
}

// checkBits computes the parity bits (bit j of the result is parity j)
// for a data block.
func (p *Params) checkBits(data uint64) byte {
	var c byte
	for j, m := range p.masks {
		c |= byte(bits.OnesCount64(data&m)&1) << j
	}
	return c
}

// blockCheck computes the full check-bit word for a block: parity bits
// in the low R bits, and (when extended) the overall parity bit above
// them. Overall parity covers data bits and parity bits so that the
// whole codeword has even weight.
func (p *Params) blockCheck(data uint64) uint16 {
	chk := uint16(p.checkBits(data))
	if p.Extended {
		overall := (bits.OnesCount64(data) + bits.OnesCount16(chk)) & 1
		chk |= uint16(overall) << p.R
	}
	return chk
}

// checkTabs holds one table per block width, K=8 then K=64, with a
// row per data byte of a block: row i maps the value of byte i to the
// extended check word of the block whose only nonzero byte is that
// one. Parity bits and the overall parity bit are XORs of data bits,
// so a block's check word is the XOR of one entry per data byte; a
// non-extended code masks the overall bit off.
var checkTabs = [2][][256]byte{make([][256]byte, 1), make([][256]byte, 8)}

// nibTabs is checkTabs[1] split by nibble for checkBytesAVX2: entry r
// holds the low-nibble rows of data bytes 2r and 2r+1, then their
// high-nibble rows, 16 bytes each. A check word is linear in the data,
// so T[i][v] = T[i][v&0x0F] ^ T[i][v&0xF0].
var nibTabs [4][64]byte

func init() {
	for _, tab := range checkTabs {
		p := NewParams(8*len(tab), true)
		for i := range tab {
			for v := range tab[i] {
				tab[i][v] = byte(p.blockCheck(uint64(v) << (8 * i)))
			}
		}
	}
	// Derived here, after the loop above, not in nibTabs' initializer:
	// package variables are initialized before any init runs.
	for i, row := range checkTabs[1] {
		for v := range 16 {
			nibTabs[i/2][16*(i%2)+v] = row[v]
			nibTabs[i/2][32+16*(i%2)+v] = row[v<<4]
		}
	}
}

// stepCheck returns the check words of the eight blocks in src (K
// bytes), the first block's in the most significant field, packed into
// the low 8*CheckLen bits: the bit string EncodeRef writes for them.
func (p *Params) stepCheck(src []byte) uint64 {
	cl := uint(p.CheckLen)
	keep := byte(1<<cl - 1) // the CheckLen low bits of a table entry
	var acc uint64
	if p.K == 8 {
		t := &p.tab[0]
		for _, x := range src[:8] {
			acc = acc<<cl | uint64(t[x]&keep)
		}
		return acc
	}
	t := (*[8][256]byte)(p.tab)
	for src = src[:64]; len(src) > 0; src = src[8:] {
		b := src[:8]
		v := t[0][b[0]] ^ t[1][b[1]] ^ t[2][b[2]] ^ t[3][b[3]] ^ t[4][b[4]] ^ t[5][b[5]] ^ t[6][b[6]] ^ t[7][b[7]]
		acc = acc<<cl | uint64(v&keep)
	}
	return acc
}

// Code is a Hamming (or extended Hamming) code over fixed-width blocks.
type Code struct {
	P       *Params
	Workers int // worker count of each pass, as ecc.Split reads it
}

// New returns a single-error-correcting Hamming code over dataBits-wide
// blocks (8 or 64).
func New(dataBits, workers int) *Code {
	return &Code{P: NewParams(dataBits, false), Workers: workers}
}

// NewSECDED returns the extended (SEC-DED) code over dataBits-wide
// blocks (8 or 64).
func NewSECDED(dataBits, workers int) *Code {
	return &Code{P: NewParams(dataBits, true), Workers: workers}
}

// blockBytes is the data bytes per block.
func (c *Code) blockBytes() int { return c.P.K / 8 }

func (c *Code) blocks(n int) int {
	bb := c.blockBytes()
	return (n + bb - 1) / bb
}

// steps is the number of eight-block steps of an n-byte input.
func (c *Code) steps(n int) int { return (c.blocks(n) + 7) / 8 }

// EncodedSize implements ecc.Code.
func (c *Code) EncodedSize(n int) int {
	return n + (c.blocks(n)*c.P.CheckLen+7)/8
}

// loadBlock reads block b of data as a little-endian uint64, zero
// padding a trailing partial block.
func (c *Code) loadBlock(data []byte, b int) uint64 {
	bb := c.blockBytes()
	start := b * bb
	end := start + bb
	if end <= len(data) {
		if bb == 8 {
			return binary.LittleEndian.Uint64(data[start:end])
		}
		return uint64(data[start])
	}
	var tmp [8]byte
	copy(tmp[:], data[start:])
	return binary.LittleEndian.Uint64(tmp[:])
}

// storeBlock writes a (possibly corrected) block back into data.
func (c *Code) storeBlock(data []byte, b int, v uint64) {
	bb := c.blockBytes()
	start := b * bb
	if bb == 8 && start+8 <= len(data) {
		binary.LittleEndian.PutUint64(data[start:], v)
		return
	}
	for i := 0; i < bb && start+i < len(data); i++ {
		data[start+i] = byte(v >> (8 * i))
	}
}

// stepCheck returns Params.stepCheck of step s of data: blocks
// [8s, 8s+8). A final short step is zero-padded; a block of zeros has
// a zero check word, so the fields of absent blocks come out as the
// zero bits EncodeRef leaves there.
func (c *Code) stepCheck(data []byte, s int) uint64 {
	span := c.P.K // eight blocks of K/8 bytes
	if lo := s * span; lo+span <= len(data) {
		return c.P.stepCheck(data[lo : lo+span])
	}
	var pad [64]byte
	copy(pad[:], data[s*span:])
	return c.P.stepCheck(pad[:span])
}

// vector reports whether this call takes the AVX2 kernel: a K=64 code
// while gf256 dispatches to its avx2 tier or above, so ARC_SIMD and
// gf256.ForceTier choose for both packages.
func (c *Code) vector() bool {
	return c.P.K == 64 && gf256.AtLeast(gf256.LevelAVX2)
}

// kernelEnd is where checkBytesAVX2's steps end in [lo, end) of an
// n-byte input: it takes whole steps only, in pairs (128 bytes).
func kernelEnd(lo, end, n int) int {
	return lo + max(min(end, n/64)-lo, 0)&^1
}

// EncodeTo implements ecc.Code. Every check byte is fully
// assigned (encodeSteps writes whole bytes, zero bits after the last
// block), so a reused dst needs no clearing.
func (c *Code) EncodeTo(dst, data []byte, _ *ecc.Scratch) ([]byte, uint32) {
	out := ecc.GrowTo(dst, c.EncodedSize(len(data)))
	p := ecc.Split(c, (*Code).encodeSteps, ecc.Args{Dst: out, Src: data}, c.steps(len(data)), c.Workers)
	return out, p.CRC
}

// copySteps is how many steps' data EncodeTo and DecodeTo copy at a time
// before computing their check words and the data's CRC-32C: 4 KiB of
// K=64 data, so that the passes after the copy find the bytes in the
// first-level cache whatever the size of the input.
const copySteps = 64

// encodeSteps copies the data (a.Src) of steps [lo, hi) into the
// encoded stream a.Dst, stores their check words after the data,
// through checkBytesAVX2 when vector() and the tables otherwise, and
// returns the CRC-32C of the data. A step owns check bytes
// [s*CheckLen, (s+1)*CheckLen), cut short at the end of out for the
// final step, so ranges never share a byte.
func (c *Code) encodeSteps(a ecc.Args, lo, hi int) ecc.Part {
	out, data := a.Dst, a.Src
	span := c.P.K
	chk := out[len(data):]
	vec := c.vector()
	var p ecc.Part
	var ext [8 * copySteps]byte // the kernel's check bytes when CheckLen < 8
	for ; lo < hi; lo += copySteps {
		end := min(lo+copySteps, hi)
		s := lo
		if vec {
			s = kernelEnd(lo, end, len(data))
			src, dst := data[lo*span:s*span], out[lo*span:s*span]
			if c.P.CheckLen == 8 {
				// SEC-DED(72,64): the extended check bytes are the check bytes.
				checkBytesAVX2(&nibTabs, src, dst, chk[lo*8:s*8])
			} else {
				checkBytesAVX2(&nibTabs, src, dst, ext[:8*(s-lo)])
				for i := lo; i < s; i++ {
					c.putStep(chk, i, c.P.packStep(ext[8*(i-lo):]))
				}
			}
		}
		copy(out[s*span:], data[s*span:min(end*span, len(data))])
		for ; s < end; s++ {
			c.putStep(chk, s, c.stepCheck(data, s))
		}
		p.Update(out[lo*span : min(end*span, len(data))])
	}
	return p
}

// putStep stores w, step s's packed check word, as the step's check
// bytes in chk, cut short at its end.
func (c *Code) putStep(chk []byte, s int, w uint64) {
	cl := c.P.CheckLen
	// MSB-align: big-endian byte k of w is check byte k of the step.
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], w<<uint(64-8*cl))
	copy(chk[s*cl:min(s*cl+cl, len(chk))], be[:])
}

// packStep packs the extended check bytes of a step's eight K=64
// blocks, ext[:8], into the step's check word as stepCheck returns it:
// the CheckLen low bits of each, the first block's highest.
func (p *Params) packStep(ext []byte) uint64 {
	if p.CheckLen == 8 {
		return binary.BigEndian.Uint64(ext)
	}
	keep := byte(1<<p.CheckLen - 1)
	var acc uint64
	for _, x := range ext[:8] {
		acc = acc<<uint(p.CheckLen) | uint64(x&keep)
	}
	return acc
}

// EncodeRef is the retained scalar reference implementation of EncodeTo
// (per-bit writeBits packing), kept for differential tests and as the
// baseline the word kernels are benchmarked against. Its output is
// byte-identical to EncodeTo's.
func (c *Code) EncodeRef(data []byte) []byte {
	n := len(data)
	nb := c.blocks(n)
	out := make([]byte, c.EncodedSize(n))
	copy(out, data)
	chk := out[n:]
	cl := c.P.CheckLen
	bitPos := 0
	for b := 0; b < nb; b++ {
		v := c.P.blockCheck(c.loadBlock(data, b))
		writeBits(chk, bitPos, uint64(v), cl)
		bitPos += cl
	}
	return out
}

// correct repairs the single flipped bit that syndrome names in block
// b (value data) of out. It reports false, leaving out alone, when no
// stored bit lives there and more than one flip must have produced the
// syndrome: a position past the codeword, or a data bit in the zero
// padding of a trailing partial block.
func (c *Code) correct(out []byte, b int, data uint64, syndrome int) bool {
	if syndrome > c.P.N {
		return false
	}
	bi := c.P.posToBit[syndrome]
	if bi >= 8*(len(out)-b*c.blockBytes()) {
		return false
	}
	// bi < 0 is a parity position: the stored check bits were hit and
	// the data is already correct.
	if bi >= 0 {
		c.storeBlock(out, b, data^(1<<bi))
	}
	return true
}

// decodeBlock verifies block b of out against its stored check word,
// correcting out in place and counting into p's Report and Failed. It
// is shared by DecodeTo, which calls it for the blocks whose check
// words differ, and DecodeRef, which calls it for every block.
func (c *Code) decodeBlock(out []byte, b int, stored uint16, p *ecc.Part) {
	data := c.loadBlock(out, b)
	storedParity := stored & ((1 << c.P.R) - 1)
	syndrome := int(storedParity ^ uint16(c.P.checkBits(data)))
	if c.P.Extended {
		// EncodeTo makes the whole codeword (data bits, parity bits,
		// overall bit) even-weight, so an odd received weight means an
		// odd number of flips.
		odd := (bits.OnesCount64(data)+bits.OnesCount16(stored))&1 == 1
		switch {
		case syndrome == 0 && !odd:
			// Clean.
		case syndrome == 0 && odd:
			// Only the overall parity bit flipped; the data and check
			// bits agree.
			p.Report.DetectedBlocks++
			p.Report.CorrectedBits++
			p.Report.CorrectedBlocks++
		case odd:
			// Single error; the syndrome names its position.
			p.Report.DetectedBlocks++
			if !c.correct(out, b, data, syndrome) {
				// At least a triple flip. Detect only.
				p.Failed++
				return
			}
			p.Report.CorrectedBits++
			p.Report.CorrectedBlocks++
		default:
			// Nonzero syndrome with even weight: a double error.
			// Detect only — this is the "DED" in SEC-DED.
			p.Report.DetectedBlocks++
			p.Failed++
		}
		return
	}
	if syndrome == 0 {
		return
	}
	p.Report.DetectedBlocks++
	if !c.correct(out, b, data, syndrome) {
		// Multi-bit corruption. Detect only.
		p.Failed++
		return
	}
	p.Report.CorrectedBits++
	p.Report.CorrectedBlocks++
}

// DecodeTo implements ecc.Code.
func (c *Code) DecodeTo(dst, encoded []byte, origLen int, _ *ecc.Scratch) ([]byte, uint32, ecc.Report, error) {
	if origLen < 0 || len(encoded) < c.EncodedSize(origLen) {
		return nil, 0, ecc.Report{}, fmt.Errorf("%w: need %d bytes, have %d", ecc.ErrTruncated, c.EncodedSize(origLen), len(encoded))
	}
	out := ecc.GrowTo(dst, origLen)
	a := ecc.Args{Dst: out, Src: encoded[:c.EncodedSize(origLen)]}
	p := ecc.Split(c, (*Code).decodeSteps, a, c.steps(origLen), c.Workers)
	return out, p.CRC, p.Report, failure(p.Failed)
}

// failure is DecodeTo's error for failed blocks, detected with
// multi-bit damage and left as they were: nil for none.
func failure(failed int) error {
	if failed > 0 {
		return fmt.Errorf("%w: %d block(s) with multi-bit damage", ecc.ErrUncorrectable, failed)
	}
	return nil
}

// decodeSteps copies the data of steps [lo, hi) from the encoded
// stream a.Src into a.Dst, then verifies and repairs it there, and
// returns the CRC-32C of the data as repaired and what the repair saw;
// safe to run concurrently on disjoint ranges. The check words are
// recomputed as encodeSteps computes them, and verifyStep compares
// them with the stored ones;
// SEC-DED(72,64) first compares the kernel's eight check bytes of a
// step with the stored eight as one word. A repair stays inside its
// step, so each piece's CRC is taken after its last repair.
func (c *Code) decodeSteps(a ecc.Args, lo, hi int) ecc.Part {
	out, encoded := a.Dst, a.Src
	span := c.P.K
	chk := encoded[len(out):]
	nb := c.blocks(len(out))
	vec := c.vector()
	var p ecc.Part
	var ext [8 * copySteps]byte
	for ; lo < hi; lo += copySteps {
		end := min(lo+copySteps, hi)
		s := lo
		if vec {
			s = kernelEnd(lo, end, len(out))
			checkBytesAVX2(&nibTabs, encoded[lo*span:s*span], out[lo*span:s*span], ext[:8*(s-lo)])
			for i := lo; i < s; i++ {
				e := ext[8*(i-lo):]
				if c.P.CheckLen == 8 && binary.LittleEndian.Uint64(chk[8*i:]) == binary.LittleEndian.Uint64(e) {
					continue
				}
				c.verifyStep(out, chk, i, nb, c.P.packStep(e), &p)
			}
		}
		copy(out[s*span:], encoded[s*span:min(end*span, len(out))])
		for ; s < end; s++ {
			c.verifyStep(out, chk, s, nb, c.stepCheck(out, s), &p)
		}
		p.Update(out[lo*span : min(end*span, len(out))])
	}
	return p
}

// verifyStep compares got, the recomputed check word of step s of out
// (nb blocks), with the one stored in chk. A step whose words are equal
// is clean and costs one compare; in any other, exactly the blocks
// whose fields differ go to decodeBlock, which is where every verdict
// is made.
func (c *Code) verifyStep(out, chk []byte, s, nb int, got uint64, p *ecc.Part) {
	cl := c.P.CheckLen
	// The step's check bytes, right-aligned like stepCheck's result.
	var be [8]byte
	copy(be[:cl], chk[s*cl:])
	stored := binary.BigEndian.Uint64(be[:]) >> uint(64-8*cl)
	if n := nb - 8*s; n < 8 {
		// Final short step: the bits after its last block are
		// padding that EncodeTo never sets and DecodeTo never reads.
		stored &^= 1<<uint(cl*(8-n)) - 1
	}
	diff := stored ^ got
	if diff == 0 {
		return
	}
	field := uint64(1)<<cl - 1
	for j := 0; j < 8; j++ {
		sh := uint(cl * (7 - j))
		if diff>>sh&field != 0 {
			c.decodeBlock(out, 8*s+j, uint16(stored>>sh&field), p)
		}
	}
}

// DecodeRef is the retained scalar reference implementation of DecodeTo
// (per-bit readBits unpacking), kept for differential tests and as the
// benchmark baseline. Results are identical to DecodeTo's.
func (c *Code) DecodeRef(encoded []byte, origLen int) ([]byte, ecc.Report, error) {
	if origLen < 0 || len(encoded) < c.EncodedSize(origLen) {
		return nil, ecc.Report{}, fmt.Errorf("%w: need %d bytes, have %d", ecc.ErrTruncated, c.EncodedSize(origLen), len(encoded))
	}
	out := make([]byte, origLen)
	copy(out, encoded[:origLen])
	chk := encoded[origLen:c.EncodedSize(origLen)]
	nb := c.blocks(origLen)
	cl := c.P.CheckLen
	var p ecc.Part
	bitPos := 0
	for b := 0; b < nb; b++ {
		stored := uint16(readBits(chk, bitPos, cl))
		bitPos += cl
		c.decodeBlock(out, b, stored, &p)
	}
	return out, p.Report, failure(p.Failed)
}

// writeBits stores the low `width` bits of v into buf starting at
// absolute bit position pos (MSB-first within each byte), most
// significant of the field first.
func writeBits(buf []byte, pos int, v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		if v>>i&1 == 1 {
			buf[pos/8] |= 0x80 >> (pos % 8)
		}
		pos++
	}
}

// readBits extracts `width` bits starting at bit position pos.
func readBits(buf []byte, pos int, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<1 | uint64(buf[pos/8]>>(7-pos%8)&1)
		pos++
	}
	return v
}

var _ ecc.Code = (*Code)(nil)
