package zfp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smooth2D(nx, ny int, seed int64) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, nx*ny)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			fx, fy := float64(x)/float64(nx), float64(y)/float64(ny)
			data[x*ny+y] = 10*math.Sin(3*fx*math.Pi)*math.Cos(2*fy*math.Pi) + 0.05*rng.NormFloat64()
		}
	}
	return data, []int{nx, ny}
}

func TestSTransformExactInverse(t *testing.T) {
	prop := func(a, b int32) bool {
		l, h := sFwd(int64(a), int64(b))
		ga, gb := sInv(l, h)
		return ga == int64(a) && gb == int64(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestXformExactInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, nd := range []int{1, 2, 3} {
		size := 1 << (2 * nd)
		for trial := 0; trial < 100; trial++ {
			c := make([]int64, size)
			want := make([]int64, size)
			for i := range c {
				c[i] = int64(rng.Uint64()>>8) - (1 << 54) //arcvet:ignore mathbits top 8 bits cleared by the shift
				want[i] = c[i]
			}
			fwdXform(c, nd)
			invXform(c, nd)
			for i := range c {
				if c[i] != want[i] {
					t.Fatalf("nd=%d trial=%d: xform not invertible at %d", nd, trial, i)
				}
			}
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	prop := func(x int64) bool { return uint2int(int2uint(x)) == x }
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Small magnitudes must map to small unsigned values (leading
	// zeros feed the embedded coder).
	for _, x := range []int64{0, 1, -1, 2, -2, 100, -100} {
		u := int2uint(x)
		if u > 1<<9 {
			t.Fatalf("int2uint(%d) = %#x too large", x, u)
		}
	}
}

func TestSequencyPermIsPermutation(t *testing.T) {
	for nd := 1; nd <= 3; nd++ {
		p := sequencyPerm(nd)
		size := 1 << (2 * nd)
		if len(p) != size {
			t.Fatalf("nd=%d: perm len %d", nd, len(p))
		}
		seen := make([]bool, size)
		for _, i := range p {
			if seen[i] {
				t.Fatalf("nd=%d: duplicate index %d", nd, i)
			}
			seen[i] = true
		}
		if p[0] != 0 {
			t.Fatalf("nd=%d: DC coefficient must come first", nd)
		}
	}
}

func TestAccuracyBoundHolds(t *testing.T) {
	for _, tol := range []float64{1.0, 0.1, 0.001} {
		data, dims := smooth2D(67, 59, 31) // non-multiple-of-4 edges
		buf, err := Compress(data, dims, Options{Mode: ModeAccuracy, Param: tol})
		if err != nil {
			t.Fatal(err)
		}
		got, gotDims, err := Decompress(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotDims[0] != 67 || gotDims[1] != 59 {
			t.Fatalf("dims %v", gotDims)
		}
		for i := range data {
			if d := math.Abs(got[i] - data[i]); d > tol {
				t.Fatalf("tol=%g: bound violated at %d: %g", tol, i, d)
			}
		}
	}
}

func TestAccuracy1DAnd3D(t *testing.T) {
	n := 1000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Cos(float64(i) / 30)
	}
	buf, err := Compress(data, []int{n}, Options{Mode: ModeAccuracy, Param: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(got[i]-data[i]) > 1e-4 {
			t.Fatalf("1D bound violated at %d", i)
		}
	}

	dims3 := []int{10, 11, 13}
	d3 := make([]float64, 10*11*13)
	for i := range d3 {
		d3[i] = math.Sin(float64(i) / 100)
	}
	buf3, err := Compress(d3, dims3, Options{Mode: ModeAccuracy, Param: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	got3, _, err := Decompress(nil, buf3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d3 {
		if math.Abs(got3[i]-d3[i]) > 0.01 {
			t.Fatalf("3D bound violated at %d", i)
		}
	}
}

func TestRateModeExactSize(t *testing.T) {
	for _, rate := range []float64{2, 4, 8, 16} {
		data, dims := smooth2D(64, 64, 32)
		buf, err := Compress(data, dims, Options{Mode: ModeRate, Param: rate})
		if err != nil {
			t.Fatal(err)
		}
		bl := newBlocker(dims)
		wantPayloadBits := bl.numBlocks * blockBits(rate, bl.blockSize)
		headerBytes := len(magic) + 3 + 4*len(dims) + 8
		gotPayload := len(buf) - headerBytes
		if want := (wantPayloadBits + 7) / 8; gotPayload != want {
			t.Fatalf("rate=%g: payload %d bytes, want %d", rate, gotPayload, want)
		}
		got, _, err := Decompress(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		// Rate mode bounds nothing, but at rate 8 on a smooth field the
		// reconstruction should be close.
		if rate >= 8 {
			for i := range data {
				if math.Abs(got[i]-data[i]) > 0.5 {
					t.Fatalf("rate=%g: wild error %g at %d", rate, got[i]-data[i], i)
				}
			}
		}
	}
}

func TestRateFlipNeverFailsAndStaysLocal(t *testing.T) {
	// The paper's two headline ZFP-Rate findings: decode always
	// completes, and a flip corrupts at most one 4^d block.
	data, dims := smooth2D(64, 64, 33)
	buf, err := Compress(data, dims, Options{Mode: ModeRate, Param: 8})
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := Decompress(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(34))
	headerBytes := len(magic) + 3 + 4*len(dims) + 8
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), buf...)
		// Flip within the block payload (header corruption is the
		// container's job to catch, and real ZFP headers are tiny).
		bit := headerBytes*8 + rng.Intn((len(buf)-headerBytes)*8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		got, _, err := Decompress(nil, mut)
		if err != nil {
			t.Fatalf("trial %d: rate-mode decode must never fail, got %v", trial, err)
		}
		diffs := 0
		for i := range clean {
			if got[i] != clean[i] {
				diffs++
			}
		}
		if diffs > 16 {
			t.Fatalf("trial %d: flip corrupted %d elements, want <= 16 (one 2D block)", trial, diffs)
		}
	}
}

// TestModeByteFlipsAreRefused flips each bit of the header's mode byte
// in an ACC and a Rate stream: no flip may turn one mode into another
// that decodes, so the one-block containment of a Rate flip holds
// against the header too.
func TestModeByteFlipsAreRefused(t *testing.T) {
	data, dims := smooth2D(96, 96, 60)
	for _, opts := range []Options{{Mode: ModeAccuracy, Param: 0.01}, {Mode: ModeRate, Param: 8}} {
		buf, err := Compress(data, dims, opts)
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), buf...)
			mut[len(magic)+1] ^= 1 << bit
			if _, _, err := Decompress(nil, mut); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, mode byte %d -> %d: err %v, want ErrCorrupt", opts.Mode, buf[len(magic)+1], mut[len(magic)+1], err)
			}
		}
	}
}

func TestRateTooLowForBlockHeaderRejected(t *testing.T) {
	// 1D blocks hold 4 values; rate 1 gives 4 bits per block, below
	// the 13-bit block header — an undecodable stream if allowed.
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := Compress(data, []int{8}, Options{Mode: ModeRate, Param: 1}); err == nil {
		t.Fatal("1D rate 1 must be rejected")
	}
	// Rate 4 (16 bits/block) is fine in 1D.
	buf, err := Compress(data, []int{8}, Options{Mode: ModeRate, Param: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(nil, buf); err != nil {
		t.Fatal(err)
	}
	// 2D rate 1 stays legal (16 bits per 16-value block).
	d2 := make([]float64, 16)
	if _, err := Compress(d2, []int{4, 4}, Options{Mode: ModeRate, Param: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyFlipPropagates(t *testing.T) {
	// Variable-length blocks: a flip desynchronizes later blocks, so
	// corruption typically spreads far beyond 16 elements.
	data, dims := smooth2D(64, 64, 35)
	buf, err := Compress(data, dims, Options{Mode: ModeAccuracy, Param: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := Decompress(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	headerBytes := len(magic) + 3 + 4*len(dims) + 8
	sawWideCorruption := false
	for trial := 0; trial < 200 && !sawWideCorruption; trial++ {
		mut := append([]byte(nil), buf...)
		bit := headerBytes*8 + rng.Intn((len(buf)-headerBytes)/2*8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		got, _, err := Decompress(nil, mut)
		if err != nil {
			continue // exceptions happen in ACC mode; fine
		}
		diffs := 0
		for i := range clean {
			if got[i] != clean[i] {
				diffs++
			}
		}
		if diffs > 64 {
			sawWideCorruption = true
		}
	}
	if !sawWideCorruption {
		t.Fatal("expected at least one flip to propagate beyond a single block in ACC mode")
	}
}

func TestZeroBlockAndConstant(t *testing.T) {
	data := make([]float64, 256)
	buf, err := Compress(data, []int{16, 16}, Options{Mode: ModeAccuracy, Param: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("zero field not preserved at %d: %g", i, v)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Compress([]float64{1}, []int{2}, Options{Mode: ModeAccuracy, Param: 0.1}); err == nil {
		t.Fatal("dims mismatch must fail")
	}
	if _, err := Compress([]float64{1}, []int{1}, Options{Mode: ModeAccuracy, Param: 0}); err == nil {
		t.Fatal("zero tolerance must fail")
	}
	if _, err := Compress([]float64{1}, []int{1}, Options{Mode: ModeRate, Param: 100}); err == nil {
		t.Fatal("rate > 64 must fail")
	}
	if _, err := Compress([]float64{1}, []int{1}, Options{Mode: 9, Param: 1}); err == nil {
		t.Fatal("bad mode must fail")
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, _, err := Decompress(nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatal("nil must be corrupt")
	}
	if _, _, err := Decompress(nil, []byte("garbage data here")); !errors.Is(err, ErrCorrupt) {
		t.Fatal("garbage must be corrupt")
	}
}

func TestModeString(t *testing.T) {
	if ModeAccuracy.String() != "ZFP-ACC" || ModeRate.String() != "ZFP-Rate" {
		t.Fatal("mode names wrong")
	}
}

func TestCompressionRatioAccuracy(t *testing.T) {
	data, dims := smooth2D(128, 128, 37)
	buf, err := Compress(data, dims, Options{Mode: ModeAccuracy, Param: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(len(data)*8) / float64(len(buf))
	if cr < 3 {
		t.Fatalf("ACC compression ratio %.1f too low", cr)
	}
	t.Logf("ZFP-ACC CR = %.1fx", cr)
}

func TestRateRandomAccessProperty(t *testing.T) {
	// Fixed-rate blocks are independently decodable: decoding a stream
	// where all other blocks are zeroed must still reproduce the
	// values of the intact block exactly.
	data, dims := smooth2D(16, 16, 38)
	buf, err := Compress(data, dims, Options{Mode: ModeRate, Param: 16})
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := Decompress(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	headerBytes := len(magic) + 3 + 4*len(dims) + 8
	bl := newBlocker(dims)
	bb := blockBits(16, bl.blockSize)
	if bb%8 != 0 {
		t.Skip("test requires byte-aligned blocks")
	}
	// Zero every block except #5.
	mut := append([]byte(nil), buf...)
	for b := 0; b < bl.numBlocks; b++ {
		if b == 5 {
			continue
		}
		off := headerBytes + b*bb/8
		for i := 0; i < bb/8; i++ {
			mut[off+i] = 0
		}
	}
	got, _, err := Decompress(nil, mut)
	if err != nil {
		t.Fatal(err)
	}
	// Compare block 5's cells against the clean decode.
	bc := bl.blockCoords(5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x0, x1 := bc[0]*4+i, bc[1]*4+j
			if x0 >= dims[0] || x1 >= dims[1] {
				continue
			}
			idx := x0*dims[1] + x1
			if got[idx] != clean[idx] {
				t.Fatalf("block 5 cell (%d,%d) changed: random access broken", i, j)
			}
		}
	}
}
