package zfp

import (
	"fmt"
	"math/bits"

	"repro/internal/bitio"
)

// ZFP's embedded group-testing coder. For each bit plane from the MSB
// down, the bits of the n coefficients already significant are written
// verbatim and the rest of the plane is unary run-length coded: a
// group-test bit ("any 1s left in this plane?"), and after a positive
// test the run of bits up to and including the next 1 — except that a
// 1 in the final position is implied, not written. n grows
// monotonically as coefficients become significant.
//
// encodePlanes/decodePlanes do that a field at a time (docs/KERNELS.md,
// "ZFP embedded coder"); encodePlanesRef/decodePlanesRef are the
// original one-call-per-bit coder. The reference is both the
// differential oracle and the step the word coder hands over to when a
// plane might not fit what is left of the block's bit budget or of the
// input: exhaustion in the middle of a run, and every truncation error,
// are defined by the reference and by nothing else.

// planeWorst bounds the bits one plane can take with n coefficients
// already significant: n verbatim bits, then for each of the size-n
// remaining positions at most a group test and a run bit (less the
// implied final 1, when there is a remaining position at all).
func planeWorst(size, n int) int { return 2*size - n }

// transpose8 transposes the 8x8 bit matrix whose row r is byte r of x
// (bit c of that byte is column c): three rounds of swapping
// off-diagonal blocks, 1x1 then 2x2 then 4x4.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}

// transposePlanes sets planes[base..base+7] from u: bit i of planes[k]
// is bit k of u[i]. Eight coefficients at a time, their byte at base is
// gathered into one word and transposed, which leaves byte p of word g
// holding plane base+p of coefficients 8g..8g+7; transposing the eight
// words as an 8x8 matrix of bytes then lines each plane up in one word.
// No branch depends on the data.
func transposePlanes(planes *[intPrec]uint64, u []uint64, base int) {
	var w [8]uint64
	for g := 0; g < len(u); g += 8 {
		var x uint64
		for j, v := range u[g:min(g+8, len(u))] {
			x |= (v >> uint(base) & 0xff) << uint(8*j)
		}
		w[g/8] = transpose8(x)
	}
	for _, step := range [3]struct {
		dist  int    // words dist apart trade byte columns dist apart
		shift uint   // 8*dist
		low   uint64 // the byte columns that stay in the lower word of a pair
	}{{4, 32, 0x00000000ffffffff}, {2, 16, 0x0000ffff0000ffff}, {1, 8, 0x00ff00ff00ff00ff}} {
		for g := 0; g < 8; g++ {
			if g&step.dist == 0 {
				a, b := w[g], w[g+step.dist]
				w[g] = a&step.low | b<<step.shift&^step.low
				w[g+step.dist] = a>>step.shift&step.low | b&^step.low
			}
		}
	}
	copy(planes[base:base+8], w[:])
}

// encodePlanes writes planes intPrec-1..kmin of u[:size] within budget
// bits, byte-for-byte what encodePlanesRef writes.
func encodePlanes(w *bitio.Writer, u []uint64, size, kmin, budget int) {
	u = u[:size]
	var any uint64
	for _, v := range u {
		any |= v
	}
	// Above the block's highest set bit every plane is empty and no
	// coefficient is significant yet, so each is one negative group
	// test: one field of zeros for as many of them as keep the budget
	// clear of the per-bit step.
	top := intPrec - 1 - bits.LeadingZeros64(any>>uint(kmin)<<uint(kmin)) // -1: nothing to keep
	n, k := 0, intPrec-1
	if empty := min(k-max(top, kmin-1), budget-planeWorst(size, 0)+1); empty > 0 {
		w.WriteBits(0, empty)
		budget -= empty
		k -= empty
	}
	var planes [intPrec]uint64 // bit i of planes[k] is bit k of u[i], for k >= lo
	for lo := k + 1; k >= kmin && budget >= planeWorst(size, n); k-- {
		if k < lo {
			// Eight more planes, on demand: a fixed-rate block stops
			// wherever its budget ends, usually long before plane 0.
			lo = max(k-7, 0)
			transposePlanes(&planes, u, lo)
		}
		x := planes[k]
		// The n verbatim bits go out LSB of x first; the writer is
		// MSB-first, so the field is the low n bits of x reversed.
		if n > 0 {
			w.WriteBits(bits.Reverse64(x)>>uint(intPrec-n), n)
			x >>= uint(n)
		}
		budget -= n
		for n < size {
			if x == 0 {
				w.WriteBit(0)
				budget--
				break
			}
			// One field per run: the positive group test, the zeros in
			// front of the next 1, and that 1 unless it sits in the last
			// position, where the test already implies it.
			run := bits.TrailingZeros64(x)
			if n+run == size-1 {
				w.WriteBits(1<<uint(run), run+1)
				budget -= run + 1
				n = size
				break
			}
			w.WriteBits(1<<uint(run+1)|1, run+2)
			budget -= run + 2
			x >>= uint(run + 1)
			n += run + 1
		}
	}
	if k >= kmin && budget > 0 {
		encodePlanesRef(w, u, size, k, kmin, n, budget)
	}
}

// decodePlanes mirrors encodePlanes and yields what decodePlanesRef
// yields on any input: the same u, the same reader position, the same
// error. maxPlanes > 0 stops the consumption early (progressive
// decode); the caller skips the block's remaining budget, which is only
// sound for fixed-rate blocks.
func decodePlanes(r *bitio.Reader, u []uint64, size, kmin, budget, maxPlanes int) error {
	// win is the 64 bits at the reader's position, shifted left by the
	// used of them consumed here; the reader itself moves only when the
	// window is reloaded and when this function hands over or returns.
	// No read can fail or run into Peek's zero padding: a plane is taken
	// here only when its worst case fits the input.
	win, _ := r.Peek(intPrec)
	used := 0
	reload := func() {
		_ = r.Skip(used)
		win, _ = r.Peek(intPrec)
		used = 0
	}
	n, k := 0, intPrec-1
	for ; k >= kmin; k-- {
		if worst := planeWorst(size, n); budget < worst || r.Remaining()-used < worst {
			break
		}
		if maxPlanes > 0 && intPrec-k > maxPlanes {
			break
		}
		var x uint64
		if n > 0 {
			if n > intPrec-used {
				reload()
			}
			// First bit read is bit 0 of x: the field, reversed.
			x = bits.Reverse64(win) & (1<<uint(n) - 1)
			win <<= uint(n)
			used += n
			budget -= n
		}
		for n < size {
			if used == intPrec {
				reload()
			}
			if win>>(intPrec-1) == 0 {
				win <<= 1
				used++
				budget--
				break
			}
			// A positive group test, then zeros up to the next 1 or, if
			// none comes before the last position, up to there: its 1 is
			// implied. Either the closing 1 or the whole of the longest
			// possible run must lie inside the window to tell.
			left := size - 1 - n
			run := bits.LeadingZeros64(win << 1)
			if have := intPrec - used; run+2 > have && left+1 > have {
				reload()
				run = bits.LeadingZeros64(win << 1)
			}
			field := run + 2
			if run >= left {
				run, field = left, left+1
			}
			x |= 1 << uint(n+run)
			n += run + 1
			win <<= uint(field)
			used += field
			budget -= field
		}
		for ; x != 0; x &= x - 1 {
			u[bits.TrailingZeros64(x)] |= 1 << uint(k)
		}
	}
	_ = r.Skip(used)
	if k >= kmin && budget > 0 {
		return decodePlanesRef(r, u, size, k, kmin, n, budget, maxPlanes)
	}
	return nil
}

// encodePlanesRef is the per-bit coder, from plane kmax down with n
// coefficients already significant (intPrec-1 and 0 for a whole block).
func encodePlanesRef(w *bitio.Writer, u []uint64, size, kmax, kmin, n, bits int) {
	for k := kmax; k >= kmin && bits > 0; k-- {
		// Gather plane k: bit i of x = bit k of coefficient i.
		var x uint64
		for i := 0; i < size; i++ {
			x |= (u[i] >> uint(k) & 1) << uint(i)
		}
		// Step 2: first n bits verbatim (LSB of x first).
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		for i := 0; i < m; i++ {
			w.WriteBit(uint(x))
			x >>= 1
		}
		// Step 3: unary run-length encode the remainder. Bit 0 of x is
		// position n.
		for n < size && bits > 0 {
			bits--
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for n < size-1 && bits > 0 {
				bits--
				b := uint(x & 1)
				w.WriteBit(b)
				if b == 1 {
					break
				}
				x >>= 1
				n++
			}
			// Consume the position that held (or implies) the 1. When
			// bits ran out mid-run with positions left, this consumes
			// one position silently; the decoder mirrors that.
			x >>= 1
			n++
		}
	}
}

// decodePlanesRef mirrors encodePlanesRef exactly.
func decodePlanesRef(r *bitio.Reader, u []uint64, size, kmax, kmin, n, bits, maxPlanes int) error {
	for k := kmax; k >= kmin && bits > 0; k-- {
		if maxPlanes > 0 && intPrec-k > maxPlanes {
			break
		}
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		var x uint64
		for i := 0; i < m; i++ {
			b, err := r.ReadBit()
			if err != nil {
				return fmt.Errorf("%w: truncated plane", ErrCorrupt)
			}
			x |= uint64(b) << uint(i)
		}
		for n < size && bits > 0 {
			bits--
			g, err := r.ReadBit()
			if err != nil {
				return fmt.Errorf("%w: truncated group bit", ErrCorrupt)
			}
			if g == 0 {
				break
			}
			hit := false
			for n < size-1 && bits > 0 {
				bits--
				b, err := r.ReadBit()
				if err != nil {
					return fmt.Errorf("%w: truncated run", ErrCorrupt)
				}
				if b == 1 {
					hit = true
					break
				}
				n++
			}
			switch {
			case hit:
				// Explicit 1 at position n.
				x |= 1 << uint(n)
			case n == size-1:
				// The group test guaranteed a 1 remains and only the
				// final position is left: the 1 is implied.
				x |= 1 << uint(n)
			default:
				// Bits exhausted mid-run: the encoder consumed this
				// position without confirming it; leave it zero.
			}
			n++
		}
		for i := 0; x != 0; i, x = i+1, x>>1 {
			u[i] |= (x & 1) << uint(k)
		}
	}
	return nil
}
