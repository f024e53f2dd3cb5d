package zfp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/datasets"
	"repro/internal/gf256"
	"repro/internal/raceflag"
	"repro/internal/safecast"
)

// forEachTier runs f as a subtest under every gf256 dispatch tier the
// host supports; 16- and 64-coefficient blocks take the AVX2 transposes
// under avx2 and every tier above it, and the word path under every
// other. It fails a tier whose kernel choice says otherwise.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range gf256.Tiers() {
		t.Run(tier, func(t *testing.T) {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			vec := tier == gf256.TierAVX2 || tier == gf256.TierGFNI
			if got := vector(16) && vector(64); got != vec {
				t.Fatalf("tier %s: the AVX2 transposes run = %v, want %v", tier, got, vec)
			}
			f(t)
		})
	}
}

// planesCase is one differential trial of the word coder against the
// per-bit reference: a coefficient block, the coder's parameters, a
// writer/reader that starts pre bits into a byte, and where to damage
// the encoded block before decoding it.
type planesCase struct {
	u      []uint64 // len 4, 16 or 64
	kmin   int      // 0..intPrec
	budget int      // >= 1
	pre    int      // 0..7
	flip   int      // bit to flip, reduced modulo the stream length
	cut    int      // bytes to keep, reduced modulo the stream length
}

// checkPlanes holds encodePlanes to encodePlanesRef (bytes and bit
// length) and decodePlanes to decodePlanesRef (error or not, reader
// position, every coefficient) on the clean stream and on truncated,
// bit-flipped and zero-extended copies of it.
func checkPlanes(t *testing.T, c planesCase) {
	t.Helper()
	size := len(c.u)
	var ref, fast bitio.Writer
	ref.WriteBits(0x55, c.pre)
	fast.WriteBits(0x55, c.pre)
	encodePlanesRef(&ref, c.u, size, intPrec-1, c.kmin, 0, c.budget)
	encodePlanes(&fast, c.u, size, c.kmin, c.budget)
	if fast.Len() != ref.Len() {
		t.Fatalf("%+v: encoded %d bits, reference %d", c, fast.Len(), ref.Len())
	}
	if used := ref.Len() - c.pre; used > c.budget {
		t.Fatalf("%+v: reference wrote %d bits", c, used)
	}
	clean := ref.Bytes()
	if got := fast.Bytes(); !bytes.Equal(got, clean) {
		t.Fatalf("%+v: encoded bytes differ\n got %x\nwant %x", c, got, clean)
	}

	streams := map[string][]byte{
		"clean":    clean,
		"extended": append(bytes.Clone(clean), make([]byte, 2*size/8+9)...),
	}
	if len(clean) > 0 {
		streams["cut"] = clean[:c.cut%len(clean)]
		flipped := bytes.Clone(streams["extended"])
		flipped[c.flip/8%len(clean)] ^= 0x80 >> uint(c.flip%8)
		streams["flipped"] = flipped
		streams["flipped-cut"] = flipped[:len(clean)]
	}
	want, got := make([]uint64, size), make([]uint64, size)
	for name, buf := range streams {
		if c.pre > 8*len(buf) {
			continue
		}
		rr, fr := bitio.NewReader(buf), bitio.NewReader(buf)
		_ = rr.Skip(c.pre)
		_ = fr.Skip(c.pre)
		clear(want)
		clear(got)
		wantErr := decodePlanesRef(rr, want, size, intPrec-1, c.kmin, 0, c.budget)
		gotErr := decodePlanes(fr, got, size, c.kmin, c.budget)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%+v %s: err %v, reference %v", c, name, gotErr, wantErr)
		}
		if fr.Pos() != rr.Pos() {
			t.Fatalf("%+v %s: reader at bit %d, reference at %d", c, name, fr.Pos(), rr.Pos())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v %s: u[%d] = %#x, reference %#x", c, name, i, got[i], want[i])
			}
		}
		if name == "clean" && c.budget >= intPrec*size+size {
			// Nothing limited the coder: every kept plane must come back.
			for i, v := range c.u {
				if keep := v >> uint(c.kmin) << uint(c.kmin); got[i] != keep {
					t.Fatalf("%+v: round trip u[%d] = %#x, want %#x", c, i, got[i], keep)
				}
			}
		}
	}
}

// randomCoeffs draws a block the way transformed data looks (magnitudes
// falling off along the sequency order) or, by shape, as dense noise, a
// few isolated ones, or nothing at all.
func randomCoeffs(rng *rand.Rand, size int) []uint64 {
	u := make([]uint64, size)
	switch shape := rng.Intn(5); shape {
	case 0: // all-zero block
	case 1: // dense noise in every plane
		for i := range u {
			u[i] = rng.Uint64()
		}
	case 2: // a few set bits
		for j := rng.Intn(4); j >= 0; j-- {
			u[rng.Intn(size)] |= 1 << uint(rng.Intn(intPrec))
		}
	default: // decaying magnitudes
		top := 1 + rng.Intn(intPrec)
		for i := range u {
			drop := i * rng.Intn(4) / 2
			if drop < top {
				u[i] = rng.Uint64() >> uint(intPrec-top+drop)
			}
		}
	}
	return u
}

func TestPlanesMatchRef(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(18))
		rounds := 12
		if testing.Short() || raceflag.Enabled {
			rounds = 2
		}
		for _, size := range []int{4, 16, 64} {
			unlimited := 1 + expBits + intPrec*size
			for kmin := 0; kmin <= intPrec; kmin++ {
				for round := 0; round < rounds; round++ {
					c := planesCase{
						u:      randomCoeffs(rng, size),
						kmin:   kmin,
						budget: unlimited,
						pre:    rng.Intn(8),
						flip:   rng.Int(),
						cut:    rng.Int(),
					}
					checkPlanes(t, c)
					// The same block under a fixed-rate budget, down to
					// one bit.
					c.budget = 1 + rng.Intn(1+rng.Intn(unlimited))
					checkPlanes(t, c)
					c.budget = 1 + rng.Intn(3*size)
					checkPlanes(t, c)
				}
			}
		}
	})
}

// untransposePlanes is the word tier's way planes go back into u, as
// decodePlanes does it: bit base+p of u[i] is set for each set bit i of
// planes[p].
func untransposePlanes(planes *[8]uint64, u []uint64, base int) {
	for p, x := range planes {
		for ; x != 0; x &= x - 1 {
			u[bits.TrailingZeros64(x)] |= 1 << uint(base+p)
		}
	}
}

// TestTransposePlanesTiers holds the AVX2 transposes to the word path
// at every base, on random blocks, all-ones blocks and blocks of top
// bits, and checks that neither kernel touches a word past the block.
func TestTransposePlanesTiers(t *testing.T) {
	if !slices.Contains(gf256.Features(), gf256.TierAVX2) {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(21))
	const sentinel = 0x5a5a5a5a5a5a5a5a
	for _, size := range []int{16, 64} {
		blocks := [][]uint64{make([]uint64, size), make([]uint64, size), make([]uint64, size)}
		for i := range blocks[0] {
			blocks[0][i] = ^uint64(0)
			blocks[1][i] = 1 << (intPrec - 1)
		}
		blocks[2][rng.Intn(size)] = 1 << (intPrec - 1)
		for range 20 {
			blocks = append(blocks, randomCoeffs(rng, size))
		}
		for bi, blk := range blocks {
			for base := 0; base <= intPrec-8; base++ {
				// Each kernel sees its block at the front of a longer
				// array whose tail must come back unchanged.
				src := append(slices.Clone(blk), sentinel)
				var want, got [intPrec]uint64
				transposePlanes(&want, blk, base)
				transposePlanesAVX2((*[8]uint64)(got[base:base+8]), src[:size], base)
				for p := base; p < base+8; p++ {
					if got[p] != want[p] {
						t.Fatalf("size %d block %d base %d: plane %d = %#x, word path %#x", size, bi, base, p, got[p], want[p])
					}
				}
				if src[size] != sentinel {
					t.Fatalf("size %d base %d: transpose wrote past the block", size, base)
				}

				// Back into a block that already holds bits elsewhere:
				// the untranspose ORs.
				planes := (*[8]uint64)(want[base : base+8])
				prior := randomCoeffs(rng, size)
				wantU := slices.Clone(prior)
				untransposePlanes(planes, wantU, base)
				gotU := append(slices.Clone(prior), sentinel)
				untransposePlanesAVX2(planes, gotU[:size], base)
				for i := range wantU {
					if gotU[i] != wantU[i] {
						t.Fatalf("size %d block %d base %d: u[%d] = %#x, word path %#x", size, bi, base, i, gotU[i], wantU[i])
					}
				}
				if gotU[size] != sentinel {
					t.Fatalf("size %d base %d: untranspose wrote past the block", size, base)
				}
			}
		}
	}
}

// planesCaseFromBytes decodes a fuzz input: seven parameter bytes, the
// index of the dispatch tier in gf256.Tiers(), then the coefficients
// (missing ones are zero).
func planesCaseFromBytes(data []byte) (planesCase, string) {
	var hdr [8]byte
	copy(hdr[:], data)
	size := []int{4, 16, 64}[hdr[0]%3]
	c := planesCase{
		u:      make([]uint64, size),
		kmin:   int(hdr[1]) % (intPrec + 1),
		budget: 1 + int(binary.LittleEndian.Uint16(hdr[2:]))%(2+expBits+intPrec*size),
		pre:    int(hdr[4]) % 8,
		flip:   int(hdr[5]) * 7,
		cut:    int(hdr[6]),
	}
	if len(data) > len(hdr) {
		data = data[len(hdr):]
		for i := range c.u {
			if len(data) < 8 {
				break
			}
			// The low six bits say how far to shift the coefficient down,
			// so that inputs reach blocks whose top planes are empty.
			v := binary.LittleEndian.Uint64(data)
			c.u[i] = v >> uint(v&(intPrec-1))
			data = data[8:]
		}
	}
	tiers := gf256.Tiers()
	return c, tiers[int(hdr[7])%len(tiers)]
}

func FuzzZFPPlanes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0xff, 0xff, 3, 9, 200, 2, 1, 2, 3, 4, 5, 6, 7, 0, 9, 9, 9, 9, 9, 9, 9, 3})
	f.Add(append([]byte{2, 40, 0x81, 0x00, 5, 31, 77, 0}, bytes.Repeat([]byte{2, 40, 0x81, 0x00, 5, 7, 31, 77}, 64)...))
	f.Add(bytes.Repeat([]byte{0xff}, 8+16*8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8+64*8 {
			return
		}
		c, tier := planesCaseFromBytes(data)
		restore, err := gf256.ForceTier(tier)
		if err != nil {
			t.Fatal(err)
		}
		defer restore()
		checkPlanes(t, c)
	})
}

// blockExpRef is the original block exponent: one Frexp per value.
func blockExpRef(vals []float64) (int, bool) {
	e := math.MinInt32
	nonzero := false
	for _, v := range vals {
		if v == 0 {
			continue
		}
		nonzero = true
		_, ve := math.Frexp(v)
		if ve > e {
			e = ve
		}
	}
	return e, nonzero
}

// kminRef is the original per-block kminFor of ModeAccuracy.
func kminRef(opts Options, emax int) int {
	k := int(math.Floor(math.Log2(opts.Param))) + fixedPointBits - emax - accMargin
	if k < 0 {
		k = 0
	}
	if k > intPrec {
		k = intPrec
	}
	return k
}

// compressRef is Compress as it stood before the word coder: the same
// header, then every block through blockExpRef, kminRef, the per-bit
// coder and bit-at-a-time padding.
func compressRef(data []float64, dims []int, opts Options) []byte {
	var out bytes.Buffer
	out.WriteString(magic)
	out.Write([]byte{version, byte(opts.Mode), safecast.U8(len(dims))})
	for _, d := range dims {
		_ = binary.Write(&out, binary.LittleEndian, safecast.U32(d))
	}
	_ = binary.Write(&out, binary.LittleEndian, math.Float64bits(opts.Param))

	bl := newBlocker(dims)
	size := bl.blockSize
	vals, coeffs, u := make([]float64, size), make([]int64, size), make([]uint64, size)
	var w bitio.Writer
	for b := 0; b < bl.numBlocks; b++ {
		bl.gather(data, b, vals)
		rateMode := opts.Mode == ModeRate
		budget := 1 + expBits + intPrec*size
		if rateMode {
			budget = blockBits(opts.Param, size)
		}
		start := w.Len()
		emax, nonzero := blockExpRef(vals)
		biased := emax + expBias
		if biased < 1 || biased > 2*expBias {
			nonzero = false
		}
		if !nonzero {
			w.WriteBit(0)
		} else {
			w.WriteBit(1)
			w.WriteBits(safecast.U64(biased), expBits)
			scale := math.Ldexp(1, fixedPointBits-emax)
			for i, v := range vals {
				coeffs[i] = int64(v * scale)
			}
			fwdXformRef(coeffs, bl.nd)
			for i, p := range bl.perm {
				u[i] = int2uint(coeffs[p])
			}
			kmin := 0
			if !rateMode {
				kmin = kminRef(opts, emax)
			}
			encodePlanesRef(&w, u, size, intPrec-1, kmin, 0, budget-1-expBits)
		}
		for rateMode && w.Len()-start < budget {
			w.WriteBit(0)
		}
	}
	out.Write(w.Bytes())
	return out.Bytes()
}

// decompressRef decodes a stream compressRef (or Compress) wrote with
// the per-bit coder. Streams in this file are well-formed, so it checks
// nothing.
func decompressRef(t *testing.T, buf []byte, dims []int, opts Options) []float64 {
	t.Helper()
	bl := newBlocker(dims)
	size := bl.blockSize
	n := 1
	for _, d := range dims {
		n *= d
	}
	out := make([]float64, n)
	vals, coeffs, u := make([]float64, size), make([]int64, size), make([]uint64, size)
	r := bitio.NewReader(buf[len(magic)+3+4*len(dims)+8:])
	for b := 0; b < bl.numBlocks; b++ {
		rateMode := opts.Mode == ModeRate
		budget := 1 + expBits + intPrec*size
		if rateMode {
			budget = blockBits(opts.Param, size)
		}
		start := r.Pos()
		flag, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		clear(vals)
		if flag == 1 {
			biased, err := r.ReadBits(expBits)
			if err != nil {
				t.Fatal(err)
			}
			emax := int(biased) - expBias //arcvet:ignore mathbits biased was read as expBits (11) bits
			kmin := 0
			if !rateMode {
				kmin = kminRef(opts, emax)
			}
			clear(u)
			if err := decodePlanesRef(r, u, size, intPrec-1, kmin, 0, budget-1-expBits); err != nil {
				t.Fatal(err)
			}
			for i, p := range bl.perm {
				coeffs[p] = uint2int(u[i])
			}
			invXformRef(coeffs, bl.nd)
			scale := math.Ldexp(1, emax-fixedPointBits)
			for i := range vals {
				vals[i] = float64(coeffs[i]) * scale
			}
		}
		if rateMode {
			if err := r.Skip(budget - (r.Pos() - start)); err != nil {
				t.Fatal(err)
			}
		}
		bl.scatter(out, b, vals)
	}
	return out
}

// TestCompressMatchesRef runs whole fields — the study's, and ones made
// of the values a block exponent can trip over — through Compress and
// Decompress and through the reference build of both.
func TestCompressMatchesRef(t *testing.T) {
	type field struct {
		name string
		data []float64
		dims []int
	}
	var fields []field
	for _, f := range datasets.StudyFields(1, 7) {
		fields = append(fields, field{f.Name, f.Data, f.Dims})
	}
	fill := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	rng := rand.New(rand.NewSource(19))
	special := func(n int, vals ...float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
			if rng.Intn(3) == 0 {
				out[i] = vals[rng.Intn(len(vals))]
			}
		}
		return out
	}
	sub := math.SmallestNonzeroFloat64
	fields = append(fields,
		field{"all-zero", fill(7*9, 0), []int{7, 9}},
		field{"negative-zero", fill(7*9, math.Copysign(0, -1)), []int{7, 9}},
		field{"constant", fill(5*6*7, -3.75), []int{5, 6, 7}},
		field{"nan", special(9*10, math.NaN()), []int{9, 10}},
		field{"nan-among-small", special(9*10, math.NaN(), 1e-9, 0), []int{9, 10}},
		field{"inf", special(6*6*6, math.Inf(1), math.Inf(-1)), []int{6, 6, 6}},
		field{"inf-among-small", special(40, math.Inf(-1), 0.25, 0), []int{40}},
		field{"subnormal", special(9*10, sub, -sub, 1000*sub, 0), []int{9, 10}},
		field{"only-subnormal", fill(17, 3*sub), []int{17}},
		field{"huge", special(9*10, math.MaxFloat64, -math.MaxFloat64), []int{9, 10}},
		field{"all-nan", fill(4*4, math.NaN()), []int{4, 4}},
	)
	modes := []Options{
		{Mode: ModeAccuracy, Param: 1e-3},
		{Mode: ModeAccuracy, Param: 1e-300},
		{Mode: ModeAccuracy, Param: 1e300},
		{Mode: ModeRate, Param: 8},
		{Mode: ModeRate, Param: 3.25},
		{Mode: ModeRate, Param: 64},
	}
	forEachTier(t, func(t *testing.T) {
		for _, f := range fields {
			for _, opts := range modes {
				got, err := Compress(f.data, f.dims, opts)
				if err != nil {
					t.Fatalf("%s %s %g: %v", f.name, opts.Mode, opts.Param, err)
				}
				want := compressRef(f.data, f.dims, opts)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %s %g: stream differs from the reference build (%d vs %d bytes)",
						f.name, opts.Mode, opts.Param, len(got), len(want))
				}
				dec, _, err := Decompress(nil, got)
				if err != nil {
					t.Fatalf("%s %s %g: decompress: %v", f.name, opts.Mode, opts.Param, err)
				}
				ref := decompressRef(t, got, f.dims, opts)
				for i := range ref {
					if math.Float64bits(dec[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s %s %g: value %d = %v, reference %v", f.name, opts.Mode, opts.Param, i, dec[i], ref[i])
					}
				}
			}
		}
	})
}

// TestBlockExpMatchesRef pins the one-Frexp block exponent to the
// per-value one on every class of float64 and on mixtures of them.
func TestBlockExpMatchesRef(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 3, 1e-300, -1e300, math.MaxFloat64,
		sub, -sub, 4 * sub, math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52),
		math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(20))
	vals := make([]float64, 16)
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(len(vals))
		for i := range vals[:n] {
			vals[i] = pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				vals[i] = math.Float64frombits(rng.Uint64())
			}
		}
		e, nz := blockExp(vals[:n])
		we, wnz := blockExpRef(vals[:n])
		if e != we || nz != wnz {
			t.Fatalf("blockExp(%v) = %d, %v; reference %d, %v", vals[:n], e, nz, we, wnz)
		}
	}
}
