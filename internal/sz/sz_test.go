package sz

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// smoothField2D builds a correlated 2D field compressors do well on.
func smoothField2D(nx, ny int, seed int64) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, nx*ny)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			fx, fy := float64(x)/float64(nx), float64(y)/float64(ny)
			data[x*ny+y] = 10*math.Sin(3*fx*math.Pi)*math.Cos(2*fy*math.Pi) +
				0.05*rng.NormFloat64()
		}
	}
	return data, []int{nx, ny}
}

func smoothField3D(nx, ny, nz int, seed int64) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, nx*ny*nz)
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				fx, fy, fz := float64(x)/float64(nx), float64(y)/float64(ny), float64(z)/float64(nz)
				data[i] = 100*math.Sin(2*fx*math.Pi)*math.Sin(2*fy*math.Pi)*math.Cos(fz*math.Pi) + 0.01*rng.NormFloat64()
				i++
			}
		}
	}
	return data, []int{nz, ny, nx}
}

func TestABSRoundTripBoundHolds(t *testing.T) {
	for _, eb := range []float64{0.1, 0.01, 1.0} {
		data, dims := smoothField2D(64, 64, 1)
		buf, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		got, gotDims, err := Decompress(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotDims) != 2 || gotDims[0] != 64 || gotDims[1] != 64 {
			t.Fatalf("dims %v", gotDims)
		}
		for i := range data {
			if d := math.Abs(got[i] - data[i]); d > eb+1e-12 {
				t.Fatalf("eb=%g: element %d violates bound: |%g - %g| = %g", eb, i, got[i], data[i], d)
			}
		}
	}
}

func TestABS1DAnd3D(t *testing.T) {
	// 1D
	n := 5000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 50)
	}
	buf, err := Compress(data, []int{n}, Options{Mode: ModeABS, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(got[i]-data[i]) > 1e-3+1e-12 {
			t.Fatalf("1D bound violated at %d", i)
		}
	}
	// 3D
	d3, dims3 := smoothField3D(16, 16, 16, 2)
	buf3, err := Compress(d3, dims3, Options{Mode: ModeABS, ErrorBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	got3, _, err := Decompress(buf3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d3 {
		if math.Abs(got3[i]-d3[i]) > 0.05+1e-12 {
			t.Fatalf("3D bound violated at %d", i)
		}
	}
}

func TestCompressionRatioIsLossy(t *testing.T) {
	data, dims := smoothField2D(128, 128, 3)
	buf, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	raw := len(data) * 8
	cr := float64(raw) / float64(len(buf))
	if cr < 4 {
		t.Fatalf("compression ratio %.1f too low for a smooth field", cr)
	}
	t.Logf("CR = %.1fx (%d -> %d bytes)", cr, raw, len(buf))
}

func TestPWRELBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 4096
	data := make([]float64, n)
	for i := range data {
		// Mix of magnitudes, signs, and exact zeros.
		switch i % 7 {
		case 0:
			data[i] = 0
		case 1:
			data[i] = -math.Exp(rng.Float64() * 10)
		default:
			data[i] = math.Exp(rng.Float64()*10 - 5)
		}
	}
	rel := 0.01
	buf, err := Compress(data, []int{n}, Options{Mode: ModePWREL, ErrorBound: rel})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] == 0 {
			if got[i] != 0 {
				t.Fatalf("zero not preserved at %d: %g", i, got[i])
			}
			continue
		}
		relErr := math.Abs(got[i]-data[i]) / math.Abs(data[i])
		if relErr > rel+1e-9 {
			t.Fatalf("pwrel violated at %d: rel err %g > %g", i, relErr, rel)
		}
		if (got[i] < 0) != (data[i] < 0) {
			t.Fatalf("sign flipped at %d", i)
		}
	}
}

func TestPSNRTargetMet(t *testing.T) {
	data, dims := smoothField2D(64, 64, 5)
	target := 90.0
	buf, err := Compress(data, dims, Options{Mode: ModePSNR, ErrorBound: target})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := valueRange(data)
	var sq float64
	for i := range data {
		d := got[i] - data[i]
		sq += d * d
	}
	rmse := math.Sqrt(sq / float64(len(data)))
	psnr := 20 * math.Log10((hi-lo)/rmse)
	if psnr < target {
		t.Fatalf("PSNR %.2f below target %.2f", psnr, target)
	}
	t.Logf("achieved PSNR %.2f dB (target %.2f)", psnr, target)
}

func TestUnpredictableValues(t *testing.T) {
	// Wild data defeats the predictor; values must still round-trip
	// within bound via the unpredictable pool.
	rng := rand.New(rand.NewSource(6))
	n := 2000
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64() * 1e30 * math.Pow(-1, float64(i%2))
	}
	buf, err := Compress(data, []int{n}, Options{Mode: ModeABS, ErrorBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(got[i]-data[i]) > 1e-6 {
			t.Fatalf("unpredictable path violated bound at %d", i)
		}
	}
}

func TestNaNAndInfSurvive(t *testing.T) {
	data := []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), 2}
	buf, err := Compress(data, []int{5}, Options{Mode: ModeABS, ErrorBound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[1]) || !math.IsInf(got[2], 1) || !math.IsInf(got[3], -1) {
		t.Fatalf("special values mangled: %v", got)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Compress([]float64{1}, []int{2}, Options{Mode: ModeABS, ErrorBound: 0.1}); err == nil {
		t.Fatal("dims mismatch must fail")
	}
	if _, err := Compress([]float64{1}, []int{1}, Options{Mode: ModeABS, ErrorBound: 0}); err == nil {
		t.Fatal("zero bound must fail")
	}
	if _, err := Compress([]float64{1}, []int{1}, Options{Mode: 99, ErrorBound: 0.1}); err == nil {
		t.Fatal("bad mode must fail")
	}
	if _, err := Compress([]float64{1}, []int{1, 1, 1, 1}, Options{Mode: ModeABS, ErrorBound: 0.1}); err == nil {
		t.Fatal("4D must fail")
	}
	if _, err := Compress(nil, []int{0}, Options{Mode: ModeABS, ErrorBound: 0.1}); err == nil {
		t.Fatal("zero dim must fail")
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, _, err := Decompress(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatal("nil buffer must be corrupt")
	}
	if _, _, err := Decompress([]byte("not a stream at all")); !errors.Is(err, ErrCorrupt) {
		t.Fatal("garbage must be corrupt")
	}
}

func TestBitFlipsProduceErrorOrGarbageNeverPanic(t *testing.T) {
	data, dims := smoothField2D(32, 32, 7)
	buf, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	completed, failed := 0, 0
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 400; trial++ {
		mut := append([]byte(nil), buf...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit %d: decompression panicked: %v", bit, r)
				}
			}()
			if _, _, err := Decompress(mut); err != nil {
				failed++
			} else {
				completed++
			}
		}()
	}
	t.Logf("flip outcomes: %d completed, %d exception", completed, failed)
	if completed == 0 {
		t.Fatal("expected some flips to decode silently (the paper's SDC risk)")
	}
}

func TestModeString(t *testing.T) {
	if ModeABS.String() != "SZ-ABS" || ModePWREL.String() != "SZ-PWREL" || ModePSNR.String() != "SZ-PSNR" {
		t.Fatal("mode names wrong")
	}
}

func TestConstantField(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = 42.5
	}
	for _, mode := range []Mode{ModeABS, ModePSNR} {
		buf, err := Compress(data, []int{1000}, Options{Mode: mode, ErrorBound: 30})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := range got {
			if math.Abs(got[i]-42.5) > 30*2 {
				t.Fatalf("%v: constant field mangled", mode)
			}
		}
	}
}

func TestLorenzoPredictorStencils(t *testing.T) {
	// 1D: previous value.
	r1 := []float64{5, 0, 0}
	p1 := newPredictor([]int{3}, r1)
	if p1.predict(0) != 0 || p1.predict(1) != 5 {
		t.Fatal("1D stencil wrong")
	}
	// 2D on a plane v = 2x + 3y: the Lorenzo prediction is exact for
	// interior points (a + b - c reproduces any bilinear form).
	ny, nx := 4, 4
	r2 := make([]float64, ny*nx)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			r2[y*nx+x] = 2*float64(x) + 3*float64(y)
		}
	}
	p2 := newPredictor([]int{ny, nx}, r2)
	for y := 1; y < ny; y++ {
		for x := 1; x < nx; x++ {
			i := y*nx + x
			if got := p2.predict(i); got != r2[i] {
				t.Fatalf("2D Lorenzo not exact on a plane at (%d,%d): %g vs %g", y, x, got, r2[i])
			}
		}
	}
	// 3D on a trilinear form v = x + 2y + 4z: exact for interior.
	d := []int{3, 3, 3}
	r3 := make([]float64, 27)
	idx := 0
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				r3[idx] = float64(x) + 2*float64(y) + 4*float64(z)
				idx++
			}
		}
	}
	p3 := newPredictor(d, r3)
	i := (1*3+1)*3 + 1 // (1,1,1)
	if got := p3.predict(i); got != r3[i] {
		t.Fatalf("3D Lorenzo not exact: %g vs %g", got, r3[i])
	}
	// Border cells treat missing neighbors as zero.
	if got := p2.predict(0); got != 0 {
		t.Fatalf("2D origin prediction %g, want 0", got)
	}
}

func TestQuantizeDequantizeInverse(t *testing.T) {
	data, dims := smoothField2D(24, 24, 300)
	eb := 0.01
	syms, unpred := quantize(data, dims, eb)
	recon, err := dequantize(&symReader{have: syms}, dims, eb, unpred)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(recon[i]-data[i]) > eb {
			t.Fatalf("quantize/dequantize bound violated at %d", i)
		}
	}
	// Symbol 0 count must equal the unpredictable pool size.
	zeros := 0
	for _, s := range syms {
		if s == 0 {
			zeros++
		}
	}
	if zeros != len(unpred) {
		t.Fatalf("%d zero symbols vs %d unpredictables", zeros, len(unpred))
	}
}
