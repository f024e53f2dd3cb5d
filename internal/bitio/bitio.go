// Package bitio provides MSB-first bit-granular readers and writers
// over byte slices, shared by the Huffman coder (internal/huffman) and
// the ZFP-like embedded bit-plane coder (internal/zfp).
//
// Both directions run word-at-a-time: the Writer batches bits in a
// 64-bit accumulator and appends it a whole word at a time, and the
// Reader extracts multi-bit fields from 8-byte loads instead of walking
// bit by bit.
// The bit stream layout is unchanged from the original per-bit
// implementation — see docs/KERNELS.md for the equivalence argument.
package bitio

import (
	"encoding/binary"
	"io"
)

// Writer accumulates bits MSB-first into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	head int    // bytes buf held before the first bit (NewWriter)
	acc  uint64 // pending bits in the low nAcc positions, oldest highest; zero above them
	nAcc int    // bits currently in acc (0..63 between calls)
}

// NewWriter returns a Writer that appends its bits to buf, after the
// bytes buf already holds. A caller that knows roughly how much is
// coming hands in a pre-sized slice — with its header already in it, if
// it has one — and Bytes returns header and bit stream in that one
// buffer. Len counts only the bits written through the Writer.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf, head: len(buf)} }

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.acc = w.acc<<1 | uint64(b&1)
	w.nAcc++
	if w.nAcc == 64 {
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
		w.acc, w.nAcc = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	// A field that leaves the accumulator short of full is a shift and
	// an or; the buffer is touched once per 64 bits.
	if n < 64-w.nAcc {
		w.acc = w.acc<<uint(n) | v&(1<<uint(n)-1)
		w.nAcc += n
		return
	}
	w.spill(v, n)
}

// spill tops the accumulator up to 64 bits with the head of the field,
// appends it as one big-endian word, and keeps the field's tail.
func (w *Writer) spill(v uint64, n int) {
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	tail := n - (64 - w.nAcc) // 0..63 bits of the field stay pending
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<uint(64-w.nAcc)|v>>uint(tail))
	w.acc, w.nAcc = v&(1<<uint(tail)-1), tail
}

// Tail flushes the whole bytes of the pending bits and returns the
// buffer with the fewer than 8 bits left over, in the low n bits of v.
// A batch encoder (huffman.EncodeAll) stores its own words into the
// buffer's spare capacity from there and hands the writer its state
// back through Resume.
func (w *Writer) Tail() (buf []byte, v uint64, n int) {
	for w.nAcc >= 8 {
		w.nAcc -= 8
		w.buf = append(w.buf, byte(w.acc>>uint(w.nAcc)))
	}
	w.acc &= 1<<uint(w.nAcc) - 1
	return w.buf, w.acc, w.nAcc
}

// Resume continues the writer after buf, which holds what Tail returned
// and the bytes written behind it, with the n < 8 bits in the low bits
// of v pending (bits of v above them are ignored).
func (w *Writer) Resume(buf []byte, v uint64, n int) {
	w.buf = buf
	w.acc, w.nAcc = v&(1<<uint(n&7)-1), n&7
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return (len(w.buf)-w.head)*8 + w.nAcc }

// Bytes flushes the pending bits (the last byte zero padded on the
// right) and returns the accumulated buffer. The Writer remains usable;
// further writes continue after the flushed padding, so callers should
// only call Bytes once when finished.
func (w *Writer) Bytes() []byte {
	for w.nAcc >= 8 {
		w.nAcc -= 8
		w.buf = append(w.buf, byte(w.acc>>uint(w.nAcc)))
	}
	if w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc)<<uint(8-w.nAcc))
	}
	w.acc, w.nAcc = 0, 0
	return w.buf
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // absolute bit position
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit returns the next bit. It returns io.ErrUnexpectedEOF when
// the buffer is exhausted — corrupted streams routinely run off the
// end, and the fault-injection harness classifies that as a
// compressor exception rather than a crash.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, io.ErrUnexpectedEOF
	}
	b := uint(r.buf[r.pos/8]>>(7-r.pos%8)) & 1
	r.pos++
	return b, nil
}

// loadWord returns the 64 bits starting at byte index bi, MSB-first,
// zero padded past the end of the buffer.
func (r *Reader) loadWord(bi int) uint64 {
	if bi+8 <= len(r.buf) {
		return binary.BigEndian.Uint64(r.buf[bi:])
	}
	var w uint64
	for i := bi; i < len(r.buf); i++ {
		w = w<<8 | uint64(r.buf[i])
	}
	return w << (8 * uint(8-(len(r.buf)-bi)))
}

// extract returns the n bits starting at bit position pos. The caller
// guarantees pos+n <= len(buf)*8 (reading past the end is confined to
// loadWord's zero padding) and n in [1, 64].
func (r *Reader) extract(pos, n int) uint64 {
	bi, off := pos>>3, uint(pos&7)
	w := r.loadWord(bi)
	if int(off)+n <= 64 {
		return w << off >> uint(64-n)
	}
	// The field straddles the 8-byte window: take the window's last
	// 64-off bits, then the remainder (at most 7 bits) from the next
	// byte.
	k := 64 - int(off)
	rem := uint(n - k)
	return w<<off>>uint(64-k)<<rem | r.loadWord(bi+8)>>(64-rem)
}

// ReadBits returns the next n bits (MSB first). n must be in [0, 64].
func (r *Reader) ReadBits(n int) (uint64, error) {
	if r.pos+n > len(r.buf)*8 {
		return 0, io.ErrUnexpectedEOF
	}
	if n == 0 {
		return 0, nil
	}
	v := r.extract(r.pos, n)
	r.pos += n
	return v, nil
}

// Buffer returns the slice the Reader reads from, unread part and read
// part alike. A decoder that keeps its own bit window over those bytes
// (huffman.DecodeAll) loads words from it directly, from Pos on, and
// hands the bits it consumed back through Skip.
func (r *Reader) Buffer() []byte { return r.buf }

// Pos returns the current absolute bit position.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.pos }

// Skip advances the position by n bits, which may leave the reader at
// end of buffer but returns io.ErrUnexpectedEOF if it would go beyond.
func (r *Reader) Skip(n int) error {
	if r.pos+n > len(r.buf)*8 {
		return io.ErrUnexpectedEOF
	}
	r.pos += n
	return nil
}

// Peek returns the next n bits (MSB first) without advancing. When
// fewer than n bits remain, the missing low bits are zero and avail
// reports how many were real. n must be in [0, 64].
func (r *Reader) Peek(n int) (v uint64, avail int) {
	avail = len(r.buf)*8 - r.pos
	if avail > n {
		avail = n
	}
	if avail > 0 {
		v = r.extract(r.pos, avail) << uint(n-avail)
	}
	return v, avail
}
