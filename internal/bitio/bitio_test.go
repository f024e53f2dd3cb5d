package bitio

import (
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	var w Writer
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 3)
	w.WriteBit(1)
	buf := w.Bytes()
	r := NewReader(buf)
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("got %b", v)
	}
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Fatalf("got %x", v)
	}
	if v, _ := r.ReadBits(3); v != 0 {
		t.Fatalf("got %b", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatalf("got %d", v)
	}
}

func TestLen(t *testing.T) {
	var w Writer
	if w.Len() != 0 {
		t.Fatal("empty writer must have Len 0")
	}
	w.WriteBits(0, 13)
	if w.Len() != 13 {
		t.Fatalf("Len = %d, want 13", w.Len())
	}
	if got := len(w.Bytes()); got != 2 {
		t.Fatalf("Bytes len = %d, want 2 (13 bits padded)", got)
	}
}

func TestPaddingIsZero(t *testing.T) {
	var w Writer
	w.WriteBits(0b111, 3)
	buf := w.Bytes()
	if buf[0] != 0b11100000 {
		t.Fatalf("padding wrong: %08b", buf[0])
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
	r2 := NewReader([]byte{0xAB})
	if _, err := r2.ReadBits(9); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF for over-read, got %v", err)
	}
}

func TestSkipAndPos(t *testing.T) {
	r := NewReader([]byte{0xF0, 0x0F})
	if err := r.Skip(4); err != nil {
		t.Fatal(err)
	}
	if r.Pos() != 4 || r.Remaining() != 12 {
		t.Fatalf("pos=%d rem=%d", r.Pos(), r.Remaining())
	}
	if v, _ := r.ReadBits(8); v != 0x00 {
		t.Fatalf("got %x", v)
	}
	if err := r.Skip(5); err != io.ErrUnexpectedEOF {
		t.Fatalf("over-skip must fail, got %v", err)
	}
}

func TestRoundTripRandomFields(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	type field struct {
		v uint64
		n int
	}
	var fields []field
	var w Writer
	for i := 0; i < 1000; i++ {
		n := 1 + rng.Intn(64)
		v := rng.Uint64() & (^uint64(0) >> (64 - n))
		fields = append(fields, field{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, f := range fields {
		got, err := r.ReadBits(f.n)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if got != f.v {
			t.Fatalf("field %d: got %x want %x (n=%d)", i, got, f.v, f.n)
		}
	}
}

func TestQuickSingleValueRoundTrip(t *testing.T) {
	prop := func(v uint64, n8 uint8) bool {
		n := 1 + int(n8)%64
		v &= ^uint64(0) >> (64 - n)
		var w Writer
		w.WriteBits(v, n)
		got, err := NewReader(w.Bytes()).ReadBits(n)
		return err == nil && got == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPeekDoesNotAdvance(t *testing.T) {
	r := NewReader([]byte{0b10110100, 0xFF})
	v, avail := r.Peek(5)
	if avail != 5 || v != 0b10110 {
		t.Fatalf("peek = %b avail %d", v, avail)
	}
	if r.Pos() != 0 {
		t.Fatal("Peek must not advance")
	}
	got, _ := r.ReadBits(5)
	if got != 0b10110 {
		t.Fatal("read after peek mismatch")
	}
	// Peek past the end: zero padded, avail reports truth.
	r2 := NewReader([]byte{0b11000000})
	v, avail = r2.Peek(12)
	if avail != 8 {
		t.Fatalf("avail = %d, want 8", avail)
	}
	if v != 0b110000000000 {
		t.Fatalf("padded peek = %012b", v)
	}
	// Empty reader.
	if _, avail := NewReader(nil).Peek(8); avail != 0 {
		t.Fatal("empty peek must report 0 available")
	}
}

// TestBufferIsTheReadersSlice pins what a decoder with its own bit
// window relies on: Buffer is the slice the Reader was given, whole,
// wherever the cursor is, and bits consumed from it directly are handed
// back with Skip.
func TestBufferIsTheReadersSlice(t *testing.T) {
	buf := []byte{0xA5, 0x3C, 0xFF, 0x00, 0x81}
	r := NewReader(buf)
	if _, err := r.ReadBits(11); err != nil {
		t.Fatal(err)
	}
	got := r.Buffer()
	if len(got) != len(buf) || &got[0] != &buf[0] {
		t.Fatal("Buffer is not the slice the Reader was built over")
	}
	// Take 13 bits from bit 11 by hand, tell the Reader, and the next
	// ReadBits continues behind them.
	if err := r.Skip(13); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadBits(8); err != nil || v != 0x00 {
		t.Fatalf("after Skip: %#x, %v; want byte 3", v, err)
	}
}
