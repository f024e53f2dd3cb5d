// Package huffman implements a canonical Huffman codec for the
// quantization-code streams produced by the SZ-like compressor
// (internal/sz). The code table is serialized into the compressed
// stream — exactly the loop-controlling metadata whose corruption the
// paper's fault study traces to decompression exceptions and timeouts.
package huffman

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitio"
)

// MaxCodeLen bounds code lengths so serialized lengths fit in 6 bits
// and decode state fits a uint64.
const MaxCodeLen = 63

// ErrCorrupt reports an invalid serialized table or bitstream.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// Codec is a canonical Huffman code over the alphabet [0, NumSymbols).
type Codec struct {
	NumSymbols int
	lengths    []uint8  // code length per symbol, 0 = unused
	codes      []uint64 // canonical code per symbol (valid when length > 0)

	// Canonical decode tables.
	maxLen     int
	firstCode  []uint64 // first canonical code of each length
	firstIndex []int    // index into symsByCode of each length's first symbol
	symsByCode []int32  // symbols sorted by (length, symbol)

	// lut accelerates Decode: indexing the next lutBits bits yields the
	// symbol and code length directly for codes up to lutBits long;
	// entries with length 0 fall back to the canonical walk.
	lut []lutEntry

	// multi accelerates DecodeAll: the same index yields every whole
	// code inside the window at once (see buildMulti).
	multi []uint64

	// nodes is grow-only scratch for the Huffman tree: BuildInto carves
	// all 2*nused-1 nodes out of one slab instead of allocating each.
	nodes []hnode
	// hscratch is the grow-only heap backing array for BuildInto.
	hscratch []*hnode
}

// grow returns s resized to n elements, reusing its backing array when
// the capacity suffices. Contents are unspecified; callers that depend
// on zeroing must clear explicitly.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// lutBits sizes the two decode tables: 4096 entries of 8 bytes each,
// 32 KiB for lut and 32 KiB for multi.
const lutBits = 12

type lutEntry struct {
	sym int32
	len uint8 // 0: code longer than lutBits, use the slow path
}

type hnode struct {
	freq        int64
	sym         int // -1 for internal
	left, right *hnode
}

type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym // deterministic tie-break
}
func (h hheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hheap) Push(x interface{}) { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Build constructs a canonical Huffman code from symbol frequencies.
// At least one frequency must be positive.
func Build(freqs []int64) (*Codec, error) {
	return BuildInto(nil, freqs)
}

// BuildInto is Build reusing c's storage (tables, tree nodes, and the
// decode tables) when their capacity suffices, so a codec rebuilt per
// chunk allocates nothing in steady state. A nil c allocates a fresh
// codec. On error c's tables are left in an unspecified state; reusing
// it for a later BuildInto/ReadTableMaxInto call remains valid.
func BuildInto(c *Codec, freqs []int64) (*Codec, error) {
	n := len(freqs)
	if n == 0 {
		return nil, errors.New("huffman: empty alphabet")
	}
	if n > maxAlphabet {
		return nil, fmt.Errorf("huffman: alphabet size %d exceeds limit %d", n, maxAlphabet)
	}
	if c == nil {
		c = new(Codec)
	}
	nused := 0
	for _, f := range freqs {
		if f > 0 {
			nused++
		}
	}
	if nused == 0 {
		return nil, errors.New("huffman: no symbols with positive frequency")
	}
	c.NumSymbols = n
	c.lengths = grow(c.lengths, n)
	clear(c.lengths)
	c.codes = grow(c.codes, n)
	// One slab holds every tree node (nused leaves + nused-1 internal);
	// the heap takes stable pointers into it because the slab is sized
	// up front and never reallocated mid-build.
	c.nodes = grow(c.nodes, 2*nused-1)
	ni := 0
	h := hheap(c.hscratch[:0])
	for s, f := range freqs {
		if f > 0 {
			c.nodes[ni] = hnode{freq: f, sym: s}
			h = append(h, &c.nodes[ni])
			ni++
		}
	}
	if len(h) == 1 {
		// Degenerate single-symbol alphabet: one-bit code.
		c.lengths[h[0].sym] = 1
	} else {
		heap.Init(&h)
		for h.Len() > 1 {
			a := heap.Pop(&h).(*hnode)
			b := heap.Pop(&h).(*hnode)
			c.nodes[ni] = hnode{freq: a.freq + b.freq, sym: -1, left: a, right: b}
			heap.Push(&h, &c.nodes[ni])
			ni++
		}
		root := h[0]
		if err := assignLengths(root, 0, c.lengths); err != nil {
			return nil, err
		}
	}
	c.hscratch = h[:0]
	if err := c.buildCanonical(); err != nil {
		return nil, err
	}
	return c, nil
}

func assignLengths(n *hnode, depth int, lengths []uint8) error {
	if n.sym >= 0 {
		if depth > MaxCodeLen {
			return fmt.Errorf("huffman: code length %d exceeds limit", depth)
		}
		lengths[n.sym] = uint8(depth) //arcvet:ignore mathbits depth <= MaxCodeLen (63) is checked above
		return nil
	}
	if err := assignLengths(n.left, depth+1, lengths); err != nil {
		return err
	}
	return assignLengths(n.right, depth+1, lengths)
}

// buildCanonical derives canonical codes and decode tables from
// c.lengths. It validates the length distribution (Kraft equality is
// not required — a single-symbol code underfills — but overfull
// distributions are rejected), which is the integrity check corrupted
// headers trip over.
func (c *Codec) buildCanonical() error {
	maxLen := 0
	var counts [MaxCodeLen + 1]int
	for _, l := range c.lengths {
		if int(l) > MaxCodeLen {
			return ErrCorrupt
		}
		if l > 0 {
			counts[l]++
			if int(l) > maxLen {
				maxLen = int(l)
			}
		}
	}
	if maxLen == 0 {
		return ErrCorrupt
	}
	c.maxLen = maxLen
	// Kraft sum must not exceed 1 (overfull code is undecodable).
	var kraft uint64
	for l := 1; l <= maxLen; l++ {
		kraft += uint64(counts[l]) << (maxLen - l) //arcvet:ignore mathbits counts are non-negative cardinalities
	}
	if kraft > 1<<uint(maxLen) {
		return ErrCorrupt
	}
	// Symbols sorted by (length, symbol value); the previous build's
	// slice is reused as the append target.
	used := c.symsByCode[:0]
	for s, l := range c.lengths {
		if l > 0 {
			used = append(used, int32(s)) //arcvet:ignore mathbits s < maxAlphabet (1<<26), enforced by Build and ReadTable
		}
	}
	sort.Slice(used, func(i, j int) bool {
		li, lj := c.lengths[used[i]], c.lengths[used[j]]
		if li != lj {
			return li < lj
		}
		return used[i] < used[j]
	})
	c.symsByCode = used
	c.firstCode = grow(c.firstCode, maxLen+2)
	c.firstIndex = grow(c.firstIndex, maxLen+2)
	code := uint64(0)
	idx := 0
	for l := 1; l <= maxLen; l++ {
		c.firstCode[l] = code
		c.firstIndex[l] = idx
		code += uint64(counts[l]) //arcvet:ignore mathbits counts are non-negative cardinalities
		idx += counts[l]
		code <<= 1
	}
	c.firstIndex[maxLen+1] = idx
	// Codes within a length are assigned in symsByCode order, so a
	// single pass with per-length counters covers every symbol.
	var next [MaxCodeLen + 1]uint64
	copy(next[:], c.firstCode[:maxLen+1])
	for _, s := range used {
		l := int(c.lengths[s])
		c.codes[s] = next[l]
		next[l]++
	}
	c.buildLUT()
	c.buildMulti()
	return nil
}

// buildLUT fills the fast decode table: every lutBits-wide window
// whose prefix is the code of symbol s maps to (s, len). The table is
// cleared before filling: Decode treats a zero length as "no short
// code", so stale entries from a reused codec would mis-decode.
func (c *Codec) buildLUT() {
	c.lut = grow(c.lut, 1<<lutBits)
	clear(c.lut)
	for _, s := range c.symsByCode {
		l := int(c.lengths[s])
		if l > lutBits {
			continue
		}
		base := c.codes[s] << uint(lutBits-l)
		count := 1 << uint(lutBits-l)
		for i := uint64(0); i < uint64(count); i++ { //arcvet:ignore mathbits count = 1 << (lutBits-l) is positive
			c.lut[base+i] = lutEntry{sym: s, len: uint8(l)} //arcvet:ignore mathbits l <= lutBits (12) inside this loop
		}
	}
}

// A multi entry packs what DecodeAll takes from one window of lutBits
// bits: the symbols of the whole codes the window starts with, how many
// there are, and the bits they occupy together —
//
//	sym1<<32 | sym2<<16 | count<<8 | totalLen
//
// count is 0 (the whole entry is 0) where lut has no code, 1 or 2
// otherwise. sym2 has 16 bits, so only alphabets of at most 1<<16
// symbols get a second symbol; sym1 needs 26 (maxAlphabet).
const (
	multiSym1Shift  = 32
	multiSym2Shift  = 16
	multiCountShift = 8
	multiLenMask    = 0xff
	// multiSyms is the most symbols one entry holds: DecodeAll stores
	// that many for every entry and advances by count, so it takes a
	// table step only while dst has room for multiSyms more.
	multiSyms = 2
	// wordSteps is the number of lookups DecodeAll makes per 8-byte
	// load. A fixed count keeps the loop free of a branch on the data:
	// a load whose first bit is any of a byte's eight leaves 57 bits.
	wordSteps = 57 / lutBits
)

// buildMulti derives the multi-symbol table from lut. A second code
// counts only if it ends inside the window: the bits past the window
// are unknown, and lut's answer for a window padded with zeros is the
// code's own only when the code is no longer than the bits that were
// real. Every entry is assigned, so a reused codec keeps nothing of the
// table it held before.
func (c *Codec) buildMulti() {
	c.multi = grow(c.multi, 1<<lutBits)
	pair := c.NumSymbols <= 1<<16
	for w := range c.multi {
		e1 := c.lut[w]
		if e1.len == 0 {
			c.multi[w] = 0
			continue
		}
		//arcvet:ignore mathbits symbols are indices in [0, maxAlphabet)
		entry := uint64(e1.sym)<<multiSym1Shift | 1<<multiCountShift | uint64(e1.len)
		if pair {
			rest := w << e1.len & (1<<lutBits - 1)
			if e2 := c.lut[rest]; e2.len != 0 && e1.len+e2.len <= lutBits {
				//arcvet:ignore mathbits symbols are indices in [0, 1<<16) under pair
				entry = uint64(e1.sym)<<multiSym1Shift | uint64(e2.sym)<<multiSym2Shift |
					2<<multiCountShift | uint64(e1.len+e2.len)
			}
		}
		c.multi[w] = entry
	}
}

// Length returns the code length of symbol s (0 when unused).
func (c *Codec) Length(s int) int { return int(c.lengths[s]) }

// Encode appends the code for symbol s to w. Encoding a symbol that
// never appeared in the Build frequencies panics: it indicates a bug
// in the caller's frequency accounting.
func (c *Codec) Encode(w *bitio.Writer, s int) {
	l := c.lengths[s]
	if l == 0 {
		panic(fmt.Sprintf("huffman: symbol %d has no code", s))
	}
	w.WriteBits(c.codes[s], int(l))
}

// EncodeAll appends the codes of syms to w, exactly the bits one Encode
// per symbol appends: the codes are packed into a local word and handed
// to w one field of up to 64 bits at a time. Like Encode it panics on a
// symbol without a code.
func (c *Codec) EncodeAll(w *bitio.Writer, syms []int32) {
	var acc uint64
	nAcc := 0
	for _, s := range syms {
		l := int(c.lengths[s])
		if l == 0 {
			panic(fmt.Sprintf("huffman: symbol %d has no code", s))
		}
		if nAcc+l > 64 {
			w.WriteBits(acc, nAcc)
			acc, nAcc = 0, 0
		}
		acc = acc<<uint(l) | c.codes[s]
		nAcc += l
	}
	w.WriteBits(acc, nAcc)
}

// Decode reads one symbol from r. Invalid codes and truncated streams
// return ErrCorrupt-wrapped errors.
func (c *Codec) Decode(r *bitio.Reader) (int, error) {
	// Fast path: one table lookup when the code is short (the
	// overwhelmingly common case for quantization codes). Peek
	// zero-pads past the end of the buffer, so near the tail the LUT
	// entry is still authoritative as long as the matched code fits in
	// the bits that are actually there.
	if window, avail := r.Peek(lutBits); avail > 0 {
		// The mask is a no-op by Peek's contract (window < 1<<lutBits)
		// but makes the bound explicit: no wire-derived window can
		// index past the 1<<lutBits-entry table.
		if e := c.lut[window&(1<<lutBits-1)]; e.len != 0 && int(e.len) <= avail {
			_ = r.Skip(int(e.len)) // cannot fail: avail >= len
			return int(e.sym), nil
		}
	}
	return c.decodeSlow(r)
}

// DecodeAll reads len(dst) symbols from r into dst, exactly as one
// Decode per symbol would: it returns how many symbols it stored before
// the first error, that error, and leaves r where that Decode loop
// would have left it.
//
// The bit window lives in a local word loaded straight from r's bytes,
// eight at a time, and one multi lookup yields up to multiSyms symbols.
// That step is taken only while eight real bytes remain at the window's
// byte (so none of the word is padding) and dst has room for a whole
// entry; a code longer than lutBits, the last bytes of the buffer, the
// last symbols of dst and every error go through Decode itself.
func (c *Codec) DecodeAll(r *bitio.Reader, dst []int32) (int, error) {
	buf := r.Buffer()
	tab := (*[1 << lutBits]uint64)(c.multi)
	n := 0
	for {
		k, pos := decodeWords(tab, buf, r.Pos(), dst[n:])
		n += k
		_ = r.Skip(pos - r.Pos()) // cannot fail: pos is inside buf
		if n == len(dst) {
			return n, nil
		}
		s, err := c.Decode(r)
		if err != nil {
			return n, err
		}
		dst[n] = int32(s) //arcvet:ignore mathbits s < NumSymbols <= maxAlphabet (1<<26)
		n++
	}
}

// decodeWords is DecodeAll's table step: from bit pos of buf it stores
// symbols in dst until the next code is not in tab, fewer than eight
// bytes remain at the window's byte, or dst may not hold another word's
// worth; it returns the symbols stored and the bit position behind
// them. It is a function of its own so that the loop's few values stay
// in registers.
func decodeWords(tab *[1 << lutBits]uint64, buf []byte, pos int, dst []int32) (n, end int) {
	for pos>>3+8 <= len(buf) && n+wordSteps*multiSyms <= len(dst) {
		// 64-pos&7 >= 57 real bits, and wordSteps lookups use at most
		// wordSteps*lutBits = 48 of them: the zeros the shifts bring in
		// are never looked up.
		w := binary.BigEndian.Uint64(buf[pos>>3:]) << uint(pos&7)
		for k := 0; k < wordSteps; k++ {
			// The mask is a no-op (w>>52 < 1<<lutBits) that makes the
			// bound explicit, as in Decode: no wire-derived window can
			// index past the table.
			e := tab[w>>(64-lutBits)&(1<<lutBits-1)]
			if e == 0 {
				return n, pos
			}
			dst[n] = int32(e >> multiSym1Shift)           //arcvet:ignore mathbits sym1 < maxAlphabet (1<<26)
			dst[n+1] = int32(uint16(e >> multiSym2Shift)) //arcvet:ignore mathbits the truncation extracts the 16-bit sym2 field
			n += int(e >> multiCountShift & 0xff)         //arcvet:ignore mathbits count is 1 or 2
			l := e & multiLenMask
			w <<= l & 63  // totalLen <= lutBits; the mask spares the shift its range check
			pos += int(l) //arcvet:ignore mathbits totalLen <= lutBits
		}
	}
	return n, pos
}

// decodeSlow is the canonical per-length walk, used near the end of
// the buffer and for codes longer than lutBits.
func (c *Codec) decodeSlow(r *bitio.Reader) (int, error) {
	var code uint64
	for l := 1; l <= c.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("%w: truncated mid-code", ErrCorrupt)
		}
		code = code<<1 | uint64(b)
		first := c.firstCode[l]
		count := c.firstIndex[l+1] - c.firstIndex[l]
		//arcvet:ignore mathbits count > 0 is checked first
		if count > 0 && code >= first && code < first+uint64(count) {
			idx := c.firstIndex[l] + int(code-first) //arcvet:ignore mathbits code-first < count <= maxAlphabet by the guard above
			return int(c.symsByCode[idx]), nil
		}
	}
	return 0, fmt.Errorf("%w: no code matches", ErrCorrupt)
}

// WriteTable serializes the code table: alphabet size, number of used
// symbols, then (symbol, length) pairs with 6-bit lengths.
func (c *Codec) WriteTable(w *bitio.Writer) {
	w.WriteBits(uint64(len(c.lengths)), 32) // == NumSymbols by construction
	w.WriteBits(uint64(len(c.symsByCode)), 32)
	for _, s := range c.symsByCode {
		w.WriteBits(uint64(s), 32) //arcvet:ignore mathbits symbols are indices in [0, maxAlphabet)
		w.WriteBits(uint64(c.lengths[s]), 6)
	}
}

// maxAlphabet bounds accepted alphabet sizes so corrupted headers
// cannot drive huge allocations.
const maxAlphabet = 1 << 26

// ReadTable deserializes a code table written by WriteTable and
// rebuilds decode state, validating as it goes. It accepts any
// alphabet up to maxAlphabet; decoders that know their alphabet size
// should prefer ReadTableMax.
func ReadTable(r *bitio.Reader) (*Codec, error) {
	return ReadTableMax(r, maxAlphabet)
}

// ReadTableMax is ReadTable with a caller-imposed alphabet bound: the
// lengths/codes arrays are sized from the serialized symbol count, so
// a decoder that knows its alphabet passes maxSyms to keep a corrupted
// table header from allocating beyond it.
func ReadTableMax(r *bitio.Reader, maxSyms int) (*Codec, error) {
	return ReadTableMaxInto(nil, r, maxSyms)
}

// ReadTableMaxInto is ReadTableMax reusing c's storage (length/code
// tables and the decode LUT) when its capacity suffices; a nil c
// allocates a fresh codec. On error c is left in an unspecified state
// but remains valid for a later *Into call.
func ReadTableMaxInto(c *Codec, r *bitio.Reader, maxSyms int) (*Codec, error) {
	if maxSyms <= 0 || maxSyms > maxAlphabet {
		maxSyms = maxAlphabet
	}
	nsym, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated table", ErrCorrupt)
	}
	nused, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated table", ErrCorrupt)
	}
	if nsym == 0 || nsym > uint64(maxSyms) || nused > nsym { //arcvet:ignore mathbits maxSyms is clamped to (0, maxAlphabet] above
		return nil, fmt.Errorf("%w: implausible table header (nsym=%d nused=%d)", ErrCorrupt, nsym, nused)
	}
	// Each used-symbol entry is serialized as 32+6 bits; a stream too
	// short to hold the claimed count is corrupt, and rejecting it here
	// avoids the pointless entry-by-entry walk.
	if need := nused * 38; need > uint64(r.Remaining()) { //arcvet:ignore mathbits Remaining is a non-negative bit count
		return nil, fmt.Errorf("%w: table claims %d entries but only %d bits remain", ErrCorrupt, nused, r.Remaining())
	}
	if c == nil {
		c = new(Codec)
	}
	c.NumSymbols = int(nsym) //arcvet:ignore mathbits nsym <= maxAlphabet is validated above
	c.lengths = grow(c.lengths, c.NumSymbols)
	clear(c.lengths) // the duplicate-symbol check below reads zeroes
	c.codes = grow(c.codes, c.NumSymbols)
	for i := uint64(0); i < nused; i++ {
		s, err := r.ReadBits(32)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated table entry", ErrCorrupt)
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated table entry", ErrCorrupt)
		}
		if s >= nsym || l == 0 {
			return nil, fmt.Errorf("%w: bad table entry (sym=%d len=%d)", ErrCorrupt, s, l)
		}
		if c.lengths[s] != 0 {
			return nil, fmt.Errorf("%w: duplicate symbol %d", ErrCorrupt, s)
		}
		c.lengths[s] = uint8(l) //arcvet:ignore mathbits l was read from 6 bits, so l < 64
	}
	if err := c.buildCanonical(); err != nil {
		return nil, err
	}
	return c, nil
}
