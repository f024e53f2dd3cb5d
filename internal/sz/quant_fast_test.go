package sz

import (
	"math"
	"math/rand"
	"testing"
)

// quantTestDims exercises 1D/2D/3D, odd extents, single-row/column
// degenerate shapes, and fields smaller and larger than a regression
// block.
var quantTestDims = [][]int{
	{1}, {7}, {64}, {1000},
	{1, 1}, {1, 17}, {17, 1}, {5, 7}, {6, 6}, {13, 29}, {40, 33},
	{1, 1, 1}, {1, 5, 9}, {9, 1, 5}, {5, 9, 1}, {3, 4, 5}, {6, 6, 6}, {7, 11, 13},
}

// quantTestField fills a field with smooth structure plus noise, and
// sprinkles in the IEEE-754 special cases the quantizer must route to
// the unpredictable pool (or reconstruct exactly): NaN, ±Inf, ±0,
// huge magnitudes, and denormals.
func quantTestField(dims []int, seed int64) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/9.0) + 0.05*rng.Float64()
	}
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		1e300, -1e300, 5e-324, math.MaxFloat64,
	}
	for _, v := range specials {
		if n > 0 {
			data[rng.Intn(n)] = v
		}
	}
	return data
}

// sameFloats compares float slices bit for bit (so NaN payloads and
// signed zeros must survive identically).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestQuantizeMatchesRef(t *testing.T) {
	for di, dims := range quantTestDims {
		for _, eb := range []float64{1e-3, 1e-6, 1e-12} {
			data := quantTestField(dims, int64(di))
			syms, unpred := quantize(data, dims, eb)
			wantSyms, wantUnpred := quantizeRef(data, dims, eb)
			if len(syms) != len(wantSyms) {
				t.Fatalf("dims=%v eb=%g: %d syms, want %d", dims, eb, len(syms), len(wantSyms))
			}
			for i := range syms {
				if syms[i] != wantSyms[i] {
					t.Fatalf("dims=%v eb=%g: syms[%d]=%d, want %d", dims, eb, i, syms[i], wantSyms[i])
				}
			}
			if !sameFloats(unpred, wantUnpred) {
				t.Fatalf("dims=%v eb=%g: unpredictable pool diverges from reference", dims, eb)
			}
		}
	}
}

func TestDequantizeMatchesRef(t *testing.T) {
	for di, dims := range quantTestDims {
		eb := 1e-4
		data := quantTestField(dims, int64(100+di))
		syms, unpred := quantizeRef(data, dims, eb)
		got, err := dequantize(&symReader{have: syms}, dims, eb, unpred)
		if err != nil {
			t.Fatalf("dims=%v: dequantize: %v", dims, err)
		}
		want, err := dequantizeRef(syms, dims, eb, unpred)
		if err != nil {
			t.Fatalf("dims=%v: dequantizeRef: %v", dims, err)
		}
		if !sameFloats(got, want) {
			t.Fatalf("dims=%v: dequantize diverges from reference", dims)
		}
	}
}

func TestDequantizeExhaustedPool(t *testing.T) {
	for _, dims := range [][]int{{8}, {4, 4}, {2, 3, 4}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		syms := make([]int32, n) // all unpredictable, empty pool
		if _, err := dequantize(&symReader{have: syms}, dims, 1e-3, nil); err == nil {
			t.Fatalf("dims=%v: no error on exhausted unpredictable pool", dims)
		}
	}
}

func TestQuantizeMixedMatchesRef(t *testing.T) {
	for di, dims := range quantTestDims {
		if len(dims) < 2 {
			continue // mixed prediction requires 2D/3D
		}
		for _, eb := range []float64{1e-3, 1e-8} {
			data := quantTestField(dims, int64(200+di))
			got := quantizeMixed(data, dims, eb)
			want := quantizeMixedRef(data, dims, eb)
			if len(got.syms) != len(want.syms) {
				t.Fatalf("dims=%v eb=%g: %d syms, want %d", dims, eb, len(got.syms), len(want.syms))
			}
			for i := range got.syms {
				if got.syms[i] != want.syms[i] {
					t.Fatalf("dims=%v eb=%g: syms[%d]=%d, want %d", dims, eb, i, got.syms[i], want.syms[i])
				}
			}
			if !sameFloats(got.unpred, want.unpred) {
				t.Fatalf("dims=%v eb=%g: unpredictable pool diverges", dims, eb)
			}
			if len(got.modes) != len(want.modes) {
				t.Fatalf("dims=%v eb=%g: %d modes, want %d", dims, eb, len(got.modes), len(want.modes))
			}
			for i := range got.modes {
				if got.modes[i] != want.modes[i] {
					t.Fatalf("dims=%v eb=%g: modes[%d]=%v, want %v", dims, eb, i, got.modes[i], want.modes[i])
				}
			}
			if len(got.qcoeffs) != len(want.qcoeffs) {
				t.Fatalf("dims=%v eb=%g: %d qcoeffs, want %d", dims, eb, len(got.qcoeffs), len(want.qcoeffs))
			}
			for i := range got.qcoeffs {
				if got.qcoeffs[i] != want.qcoeffs[i] {
					t.Fatalf("dims=%v eb=%g: qcoeffs[%d]=%d, want %d", dims, eb, i, got.qcoeffs[i], want.qcoeffs[i])
				}
			}
		}
	}
}

// TestQuantizeRoundTripFast pins the batched encoder to the batched
// decoder directly (the pipeline tests cover them through Compress).
func TestQuantizeRoundTripFast(t *testing.T) {
	for di, dims := range quantTestDims {
		eb := 1e-5
		data := quantTestField(dims, int64(300+di))
		syms, unpred := quantize(data, dims, eb)
		recon, err := dequantize(&symReader{have: syms}, dims, eb, unpred)
		if err != nil {
			t.Fatalf("dims=%v: %v", dims, err)
		}
		for i, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if math.Float64bits(recon[i]) != math.Float64bits(v) {
					t.Fatalf("dims=%v: special value at %d not exact", dims, i)
				}
				continue
			}
			if math.Abs(recon[i]-v) > eb {
				t.Fatalf("dims=%v: |recon-orig|=%g > eb at %d", dims, math.Abs(recon[i]-v), i)
			}
		}
	}
}

// TestQuantizeAllocs bounds the allocations of the batched kernels:
// symbol buffer, reconstruction buffer, zero row, and the unpred pool
// growth on a predictable field — and, for the mixed predictor, nothing
// per block: the fit and its coefficients are values, not slices.
func TestQuantizeAllocs(t *testing.T) {
	dims := []int{32, 32}
	data := make([]float64, 32*32) // constant field: fully predictable
	syms, unpred := quantize(data, dims, 1e-3)
	if allocs := testing.AllocsPerRun(10, func() {
		quantize(data, dims, 1e-3)
	}); allocs > 3 {
		t.Errorf("quantize allocates %v times per run, want <= 3", allocs)
	}
	mixed := quantTestField(dims, 1) // 36 blocks, regression and Lorenzo both chosen
	if allocs := testing.AllocsPerRun(10, func() {
		quantizeMixed(mixed, dims, 1e-3)
	}); allocs > 20 {
		t.Errorf("quantizeMixed allocates %v times per run, want <= 20", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := dequantize(&symReader{have: syms}, dims, 1e-3, unpred); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("dequantize allocates %v times per run, want <= 2", allocs)
	}
}
