package sz

import (
	"math"
	"math/rand"
	"testing"
)

// linearField2D is exactly what regression predicts perfectly.
func linearField2D(ny, nx int) ([]float64, []int) {
	data := make([]float64, ny*nx)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			data[y*nx+x] = 3.5 + 0.25*float64(x) - 0.75*float64(y)
		}
	}
	return data, []int{ny, nx}
}

func TestRegGrid(t *testing.T) {
	g := newRegGrid([]int{13, 7})
	if g.nb[0] != 3 || g.nb[1] != 2 || g.blocks != 6 {
		t.Fatalf("grid %+v", g)
	}
	lo, hi := g.blockBounds(5) // last block: rows 12, cols 6
	if lo[0] != 12 || hi[0] != 13 || lo[1] != 6 || hi[1] != 7 {
		t.Fatalf("bounds %v %v", lo, hi)
	}
	if g.coeffCount() != 3 {
		t.Fatal("2D blocks need 3 coefficients")
	}
}

func TestFitRegressionExactOnLinear(t *testing.T) {
	data, dims := linearField2D(12, 12)
	g := newRegGrid(dims)
	for b := 0; b < g.blocks; b++ {
		lo, hi := g.blockBounds(b)
		coeffs, ok := fitRegression(data, dims, lo, hi)
		if !ok {
			t.Fatalf("block %d: fit failed", b)
		}
		// Slopes must match the generating plane.
		if math.Abs(coeffs[1]+0.75) > 1e-9 || math.Abs(coeffs[2]-0.25) > 1e-9 {
			t.Fatalf("block %d: coeffs %v", b, coeffs)
		}
		// Prediction must be exact everywhere in the block.
		forEachCell(dims, lo, hi, func(idx int, c [3]int) {
			p := regPredict(coeffs[:], lo, c, 2)
			if math.Abs(p-data[idx]) > 1e-9 {
				t.Fatalf("block %d cell %v: predict %g want %g", b, c, p, data[idx])
			}
		})
	}
}

func TestCoeffQuantRoundTrip(t *testing.T) {
	coeffs := []float64{3.14159, -2.71828, 0.00001}
	eb := 0.01
	q, ok := quantizeCoeffs(coeffs, eb)
	if !ok {
		t.Fatal("quantize failed")
	}
	deq := dequantizeCoeffs(q[:len(coeffs)], eb)
	step := eb / coeffQuantScale
	for i := range coeffs {
		if math.Abs(deq[i]-coeffs[i]) > step/2+1e-15 {
			t.Fatalf("coeff %d error %g > step/2", i, math.Abs(deq[i]-coeffs[i]))
		}
	}
	// Saturation disqualifies.
	if _, ok := quantizeCoeffs([]float64{1e300}, 0.01); ok {
		t.Fatal("huge coefficient must disqualify")
	}
}

func TestMixedRoundTripBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	ny, nx := 67, 53 // partial edge blocks
	data := make([]float64, ny*nx)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			// Piecewise-sloped field plus noise: some blocks favour
			// regression, others Lorenzo.
			data[y*nx+x] = 2*float64(x) - float64(y) +
				5*math.Sin(float64(x)/9) + 0.02*rng.NormFloat64()
		}
	}
	dims := []int{ny, nx}
	for _, eb := range []float64{0.1, 0.001} {
		buf, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: eb, Regression: true})
		if err != nil {
			t.Fatal(err)
		}
		got, gotDims, err := Decompress(buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotDims[0] != ny || gotDims[1] != nx {
			t.Fatalf("dims %v", gotDims)
		}
		for i := range data {
			if d := math.Abs(got[i] - data[i]); d > eb+1e-12 {
				t.Fatalf("eb=%g: bound violated at %d: %g", eb, i, d)
			}
		}
	}
}

func TestMixed3DRoundTrip(t *testing.T) {
	dims := []int{9, 14, 11}
	n := 9 * 14 * 11
	data := make([]float64, n)
	i := 0
	for z := 0; z < 9; z++ {
		for y := 0; y < 14; y++ {
			for x := 0; x < 11; x++ {
				data[i] = float64(x) + 2*float64(y) - 3*float64(z)
				i++
			}
		}
	}
	buf, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: 1e-4, Regression: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(got[i]-data[i]) > 1e-4 {
			t.Fatalf("3D bound violated at %d", i)
		}
	}
}

func TestRegressionImprovesLinearFieldCR(t *testing.T) {
	// A sloped field with noise: Lorenzo residuals carry the slope's
	// second difference noise, regression's are near zero.
	rng := rand.New(rand.NewSource(101))
	ny, nx := 96, 96
	data := make([]float64, ny*nx)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			data[y*nx+x] = 100*float64(x) - 55*float64(y) + rng.Float64()
		}
	}
	dims := []int{ny, nx}
	without, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: 0.5, Regression: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(with) >= len(without) {
		t.Fatalf("regression should shrink sloped fields: %d vs %d bytes", len(with), len(without))
	}
	t.Logf("CR without regression %.1fx, with %.1fx",
		float64(len(data)*8)/float64(len(without)), float64(len(data)*8)/float64(len(with)))
}

func TestRegression1DFallsBackToLorenzo(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i)
	}
	buf, err := Compress(data, []int{100}, Options{Mode: ModeABS, ErrorBound: 0.1, Regression: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(got[i]-data[i]) > 0.1 {
			t.Fatal("1D regression fallback broken")
		}
	}
}

func TestMixedPWREL(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	ny, nx := 24, 24
	data := make([]float64, ny*nx)
	for i := range data {
		data[i] = math.Exp(rng.Float64()*8) * sign(i)
	}
	rel := 0.01
	buf, err := Compress(data, []int{ny, nx}, Options{Mode: ModePWREL, ErrorBound: rel, Regression: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		relErr := math.Abs(got[i]-data[i]) / math.Abs(data[i])
		if relErr > rel+1e-9 {
			t.Fatalf("pwrel+regression violated at %d: %g", i, relErr)
		}
	}
}

func sign(i int) float64 {
	if i%3 == 0 {
		return -1
	}
	return 1
}

func TestMixedFlipRobustness(t *testing.T) {
	data, dims := linearField2D(48, 48)
	buf, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: 0.01, Regression: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), buf...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit %d: panic: %v", bit, r)
				}
			}()
			_, _, _ = Decompress(mut)
		}()
	}
}
