package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if id.At(r, c) != want {
				t.Fatalf("Identity(4)[%d][%d] = %d", r, c, id.At(r, c))
			}
		}
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(5, 5)
	for i := range m.Data {
		m.Data[i] = byte(rng.Intn(256))
	}
	got := m.Mul(Identity(5))
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatal("M * I != M")
		}
	}
	got = Identity(5).Mul(m)
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatal("I * M != M")
		}
	}
}

func TestMatrixMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes should panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = byte(rng.Intn(256))
		}
		inv, err := m.Invert()
		if err != nil {
			continue // singular draw; skip
		}
		prod := m.Mul(inv)
		id := Identity(n)
		for i := range id.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("trial %d: M * M^-1 != I", trial)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 3)
	m.Set(1, 1, 5) // duplicate row
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

// TestInvertInPlaceMatchesInvert holds the allocation-free inversion to
// Matrix.Invert on random matrices (about 1 in 256 draws per size is
// singular, small sizes more often): same verdict, same inverse, a
// reduced to the identity, and spare bytes past n*n left alone.
func TestInvertInPlaceMatchesInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	singular := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(16)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = byte(rng.Intn(256))
		}
		if trial%5 == 0 && n > 1 { // force rank deficiency
			copy(m.Row(n-1), m.Row(0))
		}
		a := append(append([]byte(nil), m.Data...), 0xA5, 0xA5)
		inv := make([]byte, n*n+2)
		for i := range inv {
			inv[i] = 0xA5 // stale scratch must not leak into the result
		}
		want, wantErr := m.Invert()
		err := InvertInPlace(a, inv, n)
		if err != wantErr {
			t.Fatalf("trial %d n=%d: err %v, Invert says %v", trial, n, err, wantErr)
		}
		if a[n*n] != 0xA5 || inv[n*n] != 0xA5 || inv[n*n+1] != 0xA5 {
			t.Fatalf("trial %d n=%d: wrote past n*n", trial, n)
		}
		if err != nil {
			singular++
			continue
		}
		if !bytes.Equal(inv[:n*n], want.Data) {
			t.Fatalf("trial %d n=%d: inverse differs from Matrix.Invert", trial, n)
		}
		if !bytes.Equal(a[:n*n], Identity(n).Data) {
			t.Fatalf("trial %d n=%d: a not reduced to the identity", trial, n)
		}
	}
	if singular < 100 {
		t.Fatalf("only %d singular draws: the ErrSingular side is not covered", singular)
	}
}

func TestInvertInPlaceShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a buffer shorter than n*n should panic")
		}
	}()
	_ = InvertInPlace(make([]byte, 9), make([]byte, 8), 3)
}

func TestInvertNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square invert should panic")
		}
	}()
	_, _ = NewMatrix(2, 3).Invert()
}

func TestVandermonde(t *testing.T) {
	v := Vandermonde(4, 3)
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			if v.At(r, c) != Pow(byte(r), c) {
				t.Fatalf("Vandermonde[%d][%d] wrong", r, c)
			}
		}
	}
	// First column must be all ones (x^0).
	for r := 0; r < 4; r++ {
		if v.At(r, 0) != 1 {
			t.Fatal("Vandermonde first column must be 1")
		}
	}
}

func TestRSGeneratorSystematic(t *testing.T) {
	g, err := RSGeneratorMatrix(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 9 || g.Cols != 6 {
		t.Fatalf("generator shape %dx%d", g.Rows, g.Cols)
	}
	// Top k rows must be the identity for a systematic code.
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if g.At(r, c) != want {
				t.Fatalf("generator top square not identity at (%d,%d)", r, c)
			}
		}
	}
}

func TestRSGeneratorMDS(t *testing.T) {
	// The MDS property: any k of the k+m rows form an invertible matrix.
	k, m := 4, 3
	g, err := RSGeneratorMatrix(k, m)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustively check all C(7,4) = 35 row subsets.
	var rows []int
	var recurse func(start int)
	recurse = func(start int) {
		if len(rows) == k {
			sub := g.SubMatrix(rows)
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("rows %v not invertible: MDS violated", rows)
			}
			return
		}
		for i := start; i < k+m; i++ {
			rows = append(rows, i)
			recurse(i + 1)
			rows = rows[:len(rows)-1]
		}
	}
	recurse(0)
}

func TestRSGeneratorBounds(t *testing.T) {
	if _, err := RSGeneratorMatrix(0, 3); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := RSGeneratorMatrix(3, 0); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := RSGeneratorMatrix(200, 100); err == nil {
		t.Fatal("k+m > 256 must fail")
	}
	if _, err := RSGeneratorMatrix(241, 15); err != nil {
		t.Fatalf("paper config 241+15 must work: %v", err)
	}
	if _, err := RSGeneratorMatrix(153, 103); err != nil {
		t.Fatalf("paper config 153+103 must work: %v", err)
	}
}

func TestSubMatrix(t *testing.T) {
	m := NewMatrix(3, 2)
	for i := range m.Data {
		m.Data[i] = byte(i)
	}
	s := m.SubMatrix([]int{2, 0})
	if s.At(0, 0) != 4 || s.At(0, 1) != 5 || s.At(1, 0) != 0 || s.At(1, 1) != 1 {
		t.Fatal("SubMatrix selected wrong rows")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(2, 2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone must not alias")
	}
}

func TestCauchyInvertibleSubmatrices(t *testing.T) {
	c, err := Cauchy(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invert(); err != nil {
		t.Fatal("full Cauchy matrix must invert")
	}
	// Every element must be nonzero (definitional: 1/(x+y)).
	for _, v := range c.Data {
		if v == 0 {
			t.Fatal("Cauchy entries are nonzero by construction")
		}
	}
	if _, err := Cauchy(0, 4); err == nil {
		t.Fatal("zero rows must fail")
	}
	if _, err := Cauchy(200, 100); err == nil {
		t.Fatal("overflowing the field must fail")
	}
}

func TestRSCauchyGeneratorMDS(t *testing.T) {
	k, m := 4, 3
	g, err := RSCauchyGeneratorMatrix(k, m)
	if err != nil {
		t.Fatal(err)
	}
	// Systematic top.
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if g.At(r, c) != want {
				t.Fatal("top square must be identity")
			}
		}
	}
	// MDS: all C(7,4) row subsets invertible.
	var rows []int
	var recurse func(start int)
	recurse = func(start int) {
		if len(rows) == k {
			if _, err := g.SubMatrix(rows).Invert(); err != nil {
				t.Fatalf("rows %v singular: Cauchy MDS violated", rows)
			}
			return
		}
		for i := start; i < k+m; i++ {
			rows = append(rows, i)
			recurse(i + 1)
			rows = rows[:len(rows)-1]
		}
	}
	recurse(0)
	if _, err := RSCauchyGeneratorMatrix(0, 1); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := RSCauchyGeneratorMatrix(200, 100); err == nil {
		t.Fatal("k+m > 256 must fail")
	}
}
