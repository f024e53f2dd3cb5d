package sz

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

// quantTestDims exercises 1D/2D/3D, odd extents, single-row/column
// degenerate shapes, shapes the AVX2 kernels take whole or with rows
// and columns left over, and the benchmark's CESM, Isabel and NYX slab
// shapes.
var quantTestDims = [][]int{
	{1}, {7}, {64}, {1000},
	{1, 1}, {1, 17}, {17, 1}, {5, 7}, {6, 6}, {13, 29}, {40, 33}, {8, 8}, {16, 9}, {19, 64},
	{1, 1, 1}, {1, 5, 9}, {9, 1, 5}, {5, 9, 1}, {3, 4, 5}, {6, 6, 6}, {7, 11, 13}, {2, 8, 8}, {3, 17, 23},
	{128, 2048}, {8, 192, 192}, {16, 128, 128},
}

// forEachTier runs f as a subtest under every gf256 dispatch tier the
// host supports; rows of eight or more columns take the AVX2 kernels
// under avx2 and every tier above it, and the word path under every
// other. It fails a tier whose kernel choice says otherwise, and
// TestQuantizeTiersAgree holds each tier's output to the word tier's.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range gf256.Tiers() {
		t.Run(tier, func(t *testing.T) {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			vec := tier == gf256.TierAVX2 || tier == gf256.TierGFNI
			if got := vectorRows(vecRows); got != vec {
				t.Fatalf("tier %s: the AVX2 kernels run = %v, want %v", tier, got, vec)
			}
			f(t)
		})
	}
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
	forEachTier(t, func(t *testing.T) {
		for di, dims := range quantTestDims {
			for _, eb := range []float64{1e-3, 1e-6, 1e-12} {
				data := quantTestField(dims, int64(di))
				syms, unpred := quantize(data, dims, eb)
				wantSyms, wantUnpred := quantizeRef(data, dims, eb)
				if i := firstSymDiff(syms, wantSyms); i >= 0 {
					t.Fatalf("dims=%v eb=%g: syms diverge from the reference at %d", dims, eb, i)
				}
				if !sameFloats(unpred, wantUnpred) {
					t.Fatalf("dims=%v eb=%g: unpredictable pool diverges from reference", dims, eb)
				}
			}
		}
	})
}

// firstSymDiff is the first index at which a and b differ, or -1.
func firstSymDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// checkQuantizeTier quantizes data under the active tier and under the
// word tier's 2-row kernel: the symbols, the reconstruction bits and
// the unpredictable pool must agree, and the symbols must be
// quantizeRef's. On both tiers the zero count must be the number of
// zero symbols, and the pool exactly the values at those symbols, in
// a slice of exactly that capacity.
func checkQuantizeTier(t *testing.T, data []float64, dims []int, eb float64) {
	t.Helper()
	n := len(data)
	quantizeTier := func(tier string) (syms []int32, recon, unpred []float64) {
		t.Helper()
		syms, recon = make([]int32, n), make([]float64, n)
		zeros := quantizeRecon(data, dims, eb, syms, recon)
		_, unpred = quantize(data, dims, eb)
		var pool []float64
		for i, s := range syms {
			if s == 0 {
				pool = append(pool, data[i])
			}
		}
		if zeros != len(pool) || cap(unpred) != len(pool) || !sameFloats(unpred, pool) {
			t.Fatalf("dims=%v eb=%g tier %s: %d zeros counted and a pool of %d (cap %d), want %d",
				dims, eb, tier, zeros, len(unpred), cap(unpred), len(pool))
		}
		return syms, recon, unpred
	}
	syms, recon, unpred := quantizeTier(gf256.ActiveTier())

	restore, err := gf256.ForceTier(gf256.TierWord)
	if err != nil {
		t.Fatal(err)
	}
	wantSyms, wantRecon, wantUnpred := quantizeTier(gf256.TierWord)
	restore()

	if i := firstSymDiff(syms, wantSyms); i >= 0 {
		t.Fatalf("dims=%v eb=%g: syms diverge from the word kernel's at %d", dims, eb, i)
	}
	if !sameFloats(recon, wantRecon) {
		t.Fatalf("dims=%v eb=%g: reconstruction diverges from the word kernel's", dims, eb)
	}
	if !sameFloats(unpred, wantUnpred) {
		t.Fatalf("dims=%v eb=%g: unpredictable pool diverges from the word kernel's", dims, eb)
	}
	refSyms, _ := quantizeRef(data, dims, eb)
	if i := firstSymDiff(syms, refSyms); i >= 0 {
		t.Fatalf("dims=%v eb=%g: syms diverge from the reference at %d", dims, eb, i)
	}
}

// TestQuantizeTiersAgree pins every tier's kernels to the word tier's
// bit for bit, reconstruction included.
func TestQuantizeTiersAgree(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		for di, dims := range quantTestDims {
			for _, eb := range []float64{1e-2, 1e-5, 1e-12} {
				checkQuantizeTier(t, quantTestField(dims, int64(200+di)), dims, eb)
			}
		}
	})
}

// quantSpecials are the values FuzzSZQuantize salts its fields with.
var quantSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -1e-310, 1e300, -1e300, math.MaxFloat64,
}

// FuzzSZQuantize runs quantize on 2-D and 3-D fields of arbitrary
// extents (1 to 48 in 2-D, 1 to 24 in 3-D), an error bound from 1e-12
// to 1, a smooth field from a seed salted at chosen positions with
// NaN, infinities, signed zeros, denormals and huge values, under the
// tier the input picks. The smooth base keeps exact half-way quotients,
// where code selection may differ from quantizeRef's, out of reach.
func FuzzSZQuantize(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(40), uint8(0), uint16(40000), int64(1), uint8(0), []byte{})
	f.Add(uint8(1), uint8(2), uint8(9), uint8(8), uint16(50000), int64(2), uint8(0), []byte{1, 0, 0, 9, 0, 3, 50, 0, 7})
	f.Add(uint8(1), uint8(4), uint8(16), uint8(23), uint16(0), int64(3), uint8(1), []byte{0, 1, 5})
	f.Add(uint8(0), uint8(17), uint8(8), uint8(0), uint16(65535), int64(4), uint8(2), []byte{7, 0, 1, 8, 0, 2})
	f.Fuzz(func(t *testing.T, shape, e0, e1, e2 uint8, ebBits uint16, seed int64, tier uint8, salts []byte) {
		dims := []int{1 + int(e0)%48, 1 + int(e1)%48}
		if shape%2 == 1 {
			dims = []int{1 + int(e0)%24, 1 + int(e1)%24, 1 + int(e2)%24}
		}
		eb := math.Pow(10, -12+12*float64(ebBits)/math.MaxUint16)
		n := 1
		for _, d := range dims {
			n *= d
		}
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Sin(float64(i)/9.0) + 0.05*rng.Float64()
		}
		for ; len(salts) >= 3; salts = salts[3:] {
			data[int(binary.LittleEndian.Uint16(salts))%n] = quantSpecials[int(salts[2])%len(quantSpecials)]
		}
		tiers := gf256.Tiers()
		restore, err := gf256.ForceTier(tiers[int(tier)%len(tiers)])
		if err != nil {
			t.Fatal(err)
		}
		defer restore()
		checkQuantizeTier(t, data, dims, eb)
	})
}

func TestDequantizeMatchesRef(t *testing.T) {
	for di, dims := range quantTestDims {
		eb := 1e-4
		data := quantTestField(dims, int64(100+di))
		syms, unpred := quantizeRef(data, dims, eb)
		got, err := dequantize(nil, &symReader{have: syms}, dims, eb, unpred)
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
		if _, err := dequantize(nil, &symReader{have: syms}, dims, 1e-3, nil); err == nil {
			t.Fatalf("dims=%v: no error on exhausted unpredictable pool", dims)
		}
	}
}

// TestQuantizeRoundTripFast pins the batched encoder to the batched
// decoder directly (the pipeline tests cover them through Compress).
func TestQuantizeRoundTripFast(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		for di, dims := range quantTestDims {
			eb := 1e-5
			data := quantTestField(dims, int64(300+di))
			syms, unpred := quantize(data, dims, eb)
			recon, err := dequantize(nil, &symReader{have: syms}, dims, eb, unpred)
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
	})
}

// TestQuantizeAllocs bounds the allocations of the batched kernels:
// symbol buffer, reconstruction buffer, zero row, and the unpred pool
// growth on a predictable field.
func TestQuantizeAllocs(t *testing.T) {
	dims := []int{32, 32}
	data := make([]float64, 32*32) // constant field: fully predictable
	syms, unpred := quantize(data, dims, 1e-3)
	if allocs := testing.AllocsPerRun(10, func() {
		quantize(data, dims, 1e-3)
	}); allocs > 3 {
		t.Errorf("quantize allocates %v times per run, want <= 3", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := dequantize(nil, &symReader{have: syms}, dims, 1e-3, unpred); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("dequantize allocates %v times per run, want <= 2", allocs)
	}
}
