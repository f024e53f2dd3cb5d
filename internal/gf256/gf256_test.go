package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXOR(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatal("Add must be XOR")
	}
	if Sub(0x53, 0xCA) != Add(0x53, 0xCA) {
		t.Fatal("Sub must equal Add in characteristic 2")
	}
}

func TestMulIdentity(t *testing.T) {
	for a := 0; a < 256; a++ {
		if got := Mul(byte(a), 1); got != byte(a) {
			t.Fatalf("Mul(%d, 1) = %d", a, got)
		}
		if got := Mul(byte(a), 0); got != 0 {
			t.Fatalf("Mul(%d, 0) = %d", a, got)
		}
	}
}

func TestMulMatchesSchoolbook(t *testing.T) {
	// Carry-less multiplication reduced mod Poly, the definitional form.
	schoolbook := func(a, b byte) byte {
		var prod uint16
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				prod ^= uint16(a) << i
			}
		}
		for i := 15; i >= 8; i-- {
			if prod&(1<<i) != 0 {
				prod ^= uint16(Poly) << (i - 8)
			}
		}
		return byte(prod)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := schoolbook(byte(a), byte(b))
			if got := Mul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestMulCommutativeAssociativeDistributive(t *testing.T) {
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	dist := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(dist, nil); err != nil {
		t.Error(err)
	}
}

// Division is multiplication by the inverse: the matrix inversions
// divide that way.
func TestDivInvertsMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			p := Mul(byte(a), byte(b))
			if got := Mul(p, Inv(byte(b))); got != byte(a) {
				t.Fatalf("Mul(Mul(%d,%d), Inv(%d)) = %d, want %d", a, b, b, got, a)
			}
		}
	}
}

func TestInv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a * Inv(a) = %d for a = %d", got, a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) should panic")
		}
	}()
	Inv(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Exp(int(logTable[a])); got != byte(a) {
			t.Fatalf("Exp(log %d) = %d", a, got)
		}
	}
}

func TestExpGeneratesWholeField(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator produced %d distinct elements, want 255", len(seen))
	}
	if seen[0] {
		t.Fatal("generator must never produce zero")
	}
}

func TestPow(t *testing.T) {
	for a := 0; a < 256; a++ {
		want := byte(1)
		for n := 0; n < 10; n++ {
			if got := Pow(byte(a), n); got != want {
				t.Fatalf("Pow(%d, %d) = %d, want %d", a, n, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
}

func TestMulSliceAccumulates(t *testing.T) {
	src := []byte{1, 2, 3, 255}
	dst := []byte{10, 20, 30, 40}
	want := make([]byte, len(dst))
	for i := range src {
		want[i] = dst[i] ^ Mul(7, src[i])
	}
	MulSlice(7, src, dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulSlice mismatch at %d: got %d want %d", i, dst[i], want[i])
		}
	}
}

func TestMulSliceZeroCoefficientIsNoop(t *testing.T) {
	src := []byte{1, 2, 3}
	dst := []byte{9, 9, 9}
	MulSlice(0, src, dst)
	for _, v := range dst {
		if v != 9 {
			t.Fatal("MulSlice with c=0 must not modify dst")
		}
	}
}

func TestMulSliceOneCoefficientIsXOR(t *testing.T) {
	src := []byte{1, 2, 3}
	dst := []byte{4, 5, 6}
	MulSlice(1, src, dst)
	want := []byte{5, 7, 5}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulSlice c=1 mismatch at %d", i)
		}
	}
}

func TestMulSliceAssign(t *testing.T) {
	src := []byte{1, 2, 3}
	dst := make([]byte, 3)
	MulSliceAssign(3, src, dst)
	for i := range src {
		if dst[i] != Mul(3, src[i]) {
			t.Fatalf("MulSliceAssign mismatch at %d", i)
		}
	}
	MulSliceAssign(0, src, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("MulSliceAssign with c=0 must zero dst")
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	MulSlice(2, []byte{1}, []byte{1, 2})
}

func TestTableMatchesMul(t *testing.T) {
	for c := 0; c < 256; c += 17 {
		row := Table(byte(c))
		for x := 0; x < 256; x++ {
			if row[x] != Mul(byte(c), byte(x)) {
				t.Fatalf("Table(%d)[%d] mismatch", c, x)
			}
		}
	}
}
