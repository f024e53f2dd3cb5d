package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// refWriter is the per-bit writer the stream formats were defined by:
// every bit goes straight into its byte, MSB first. It shares nothing
// with Writer's accumulator.
type refWriter struct {
	buf  []byte
	bits int
}

func (w *refWriter) WriteBit(b uint) {
	if w.bits%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	w.buf[w.bits/8] |= byte(b&1) << uint(7-w.bits%8)
	w.bits++
}

func (w *refWriter) Len() int      { return w.bits }
func (w *refWriter) Bytes() []byte { return w.buf }

// refWriteBits is the scalar reference for WriteBits: one WriteBit per
// bit, most significant first.
func refWriteBits(w *refWriter, v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> uint(i)))
	}
}

// refReadBits is the scalar reference for ReadBits.
func refReadBits(r *Reader, n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// randomFields produces a deterministic mixed-width (value, width)
// sequence that lands on every alignment.
func randomFields(seed int64, count int) (vals []uint64, widths []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		n := rng.Intn(65) // 0..64
		vals = append(vals, rng.Uint64())
		widths = append(widths, n)
	}
	return vals, widths
}

// TestWriteBitsMatchesRef writes the same field sequence through the
// accumulator path and the per-bit reference and requires identical
// buffers at every prefix length.
func TestWriteBitsMatchesRef(t *testing.T) {
	vals, widths := randomFields(20, 4000)
	var fast Writer
	var ref refWriter
	for i := range vals {
		fast.WriteBits(vals[i], widths[i])
		refWriteBits(&ref, vals[i], widths[i])
		if fast.Len() != ref.Len() {
			t.Fatalf("field %d (width %d): Len %d != %d", i, widths[i], fast.Len(), ref.Len())
		}
	}
	if !bytes.Equal(fast.Bytes(), ref.Bytes()) {
		t.Fatal("accumulator WriteBits diverges from per-bit reference")
	}
}

// TestWriteBitsInterleavedWithWriteBit mixes single-bit and multi-bit
// writes so the accumulator sees every residual fill level.
func TestWriteBitsInterleavedWithWriteBit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var fast Writer
	var ref refWriter
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 {
			b := uint(rng.Intn(2))
			fast.WriteBit(b)
			ref.WriteBit(b)
		} else {
			v, n := rng.Uint64(), rng.Intn(65)
			fast.WriteBits(v, n)
			refWriteBits(&ref, v, n)
		}
	}
	if !bytes.Equal(fast.Bytes(), ref.Bytes()) {
		t.Fatal("interleaved WriteBit/WriteBits diverges from reference")
	}
}

// TestNewWriterAppendsAfterPrefix starts the bit stream behind every
// prefix length and accumulator fill level: the prefix must come back
// untouched, the bits must equal the reference stream, Len must count
// the bits alone, and a pre-sized buffer must not be reallocated.
func TestNewWriterAppendsAfterPrefix(t *testing.T) {
	vals, widths := randomFields(26, 300)
	var ref refWriter
	for i := range vals {
		refWriteBits(&ref, vals[i], widths[i])
	}
	for prefix := 0; prefix <= 17; prefix++ {
		buf := make([]byte, prefix, prefix+len(ref.Bytes()))
		for i := range buf {
			buf[i] = byte(0xA0 + i)
		}
		w := NewWriter(buf)
		if w.Len() != 0 {
			t.Fatalf("prefix %d: fresh writer has Len %d", prefix, w.Len())
		}
		total := 0
		for i := range vals {
			w.WriteBits(vals[i], widths[i])
			total += widths[i]
			if w.Len() != total {
				t.Fatalf("prefix %d field %d: Len %d, want %d", prefix, i, w.Len(), total)
			}
		}
		out := w.Bytes()
		if !bytes.Equal(out[:prefix], buf) {
			t.Fatalf("prefix %d: prefix bytes changed", prefix)
		}
		if !bytes.Equal(out[prefix:], ref.Bytes()) {
			t.Fatalf("prefix %d: bit stream differs from reference", prefix)
		}
		if &out[0] != &buf[:1][0] {
			t.Fatalf("prefix %d: a buffer with room for the stream was reallocated", prefix)
		}
	}
}

// TestReadBitsMatchesRef reads mixed-width fields from a shared random
// buffer through both paths, from every starting bit offset.
func TestReadBitsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	buf := make([]byte, 300)
	rng.Read(buf)
	for off := 0; off < 16; off++ {
		fast, ref := NewReader(buf), NewReader(buf)
		if err := fast.Skip(off); err != nil {
			t.Fatal(err)
		}
		if err := ref.Skip(off); err != nil {
			t.Fatal(err)
		}
		for {
			n := rng.Intn(65)
			got, gotErr := fast.ReadBits(n)
			want, wantErr := refReadBits(ref, n)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("off=%d n=%d: error mismatch %v vs %v", off, n, gotErr, wantErr)
			}
			if gotErr != nil {
				break
			}
			if got != want {
				t.Fatalf("off=%d n=%d pos=%d: %#x != %#x", off, n, ref.Pos(), got, want)
			}
			if fast.Pos() != ref.Pos() {
				t.Fatalf("off=%d: positions diverged %d vs %d", off, fast.Pos(), ref.Pos())
			}
		}
	}
}

// TestReadBitsNearEnd covers the word loader's zero-padded tail: reads
// that end exactly at, or one bit before, the buffer boundary.
func TestReadBitsNearEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for size := 1; size <= 12; size++ {
		buf := make([]byte, size)
		rng.Read(buf)
		total := size * 8
		for n := 0; n <= 64 && n <= total; n++ {
			r := NewReader(buf)
			if err := r.Skip(total - n); err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadBits(n)
			if err != nil {
				t.Fatalf("size=%d n=%d: %v", size, n, err)
			}
			ref := NewReader(buf)
			if err := ref.Skip(total - n); err != nil {
				t.Fatal(err)
			}
			want, err := refReadBits(ref, n)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("size=%d n=%d: %#x != %#x", size, n, got, want)
			}
			// One past the end must fail without advancing.
			if _, err := r.ReadBits(1); err == nil {
				t.Fatalf("size=%d: read past end succeeded", size)
			}
		}
	}
}

// TestPeekMatchesRef pins Peek's word extraction to a per-bit walk,
// including the zero-padded short tail.
func TestPeekMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	buf := make([]byte, 40)
	rng.Read(buf)
	total := len(buf) * 8
	for pos := 0; pos <= total; pos++ {
		for _, n := range []int{0, 1, 7, 8, 12, 13, 31, 57, 63, 64} {
			r := NewReader(buf)
			if err := r.Skip(pos); err != nil {
				t.Fatal(err)
			}
			got, gotAvail := r.Peek(n)
			wantAvail := total - pos
			if wantAvail > n {
				wantAvail = n
			}
			var want uint64
			ref := NewReader(buf)
			if err := ref.Skip(pos); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < wantAvail; i++ {
				b, err := ref.ReadBit()
				if err != nil {
					t.Fatal(err)
				}
				want = want<<1 | uint64(b)
			}
			want <<= uint(n - wantAvail)
			if got != want || gotAvail != wantAvail {
				t.Fatalf("pos=%d n=%d: (%#x,%d) != (%#x,%d)", pos, n, got, gotAvail, want, wantAvail)
			}
			if r.Pos() != pos {
				t.Fatalf("Peek advanced the reader: %d -> %d", pos, r.Pos())
			}
		}
	}
}

// TestRoundTripFields writes a random field sequence and reads it back
// bit-exactly through the fast paths.
func TestRoundTripFields(t *testing.T) {
	vals, widths := randomFields(25, 2000)
	var w Writer
	for i := range vals {
		w.WriteBits(vals[i], widths[i])
	}
	r := NewReader(w.Bytes())
	for i := range vals {
		got, err := r.ReadBits(widths[i])
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		want := vals[i]
		if widths[i] < 64 {
			want &= 1<<uint(widths[i]) - 1
		}
		if got != want {
			t.Fatalf("field %d (width %d): %#x != %#x", i, widths[i], got, want)
		}
	}
}
