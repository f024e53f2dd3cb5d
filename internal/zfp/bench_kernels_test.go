package zfp

// Kernel benchmarks: the unrolled lifting transform and the word-speed
// embedded coder, each paired with its retained reference, and the AVX2
// plane transposes paired with the word path, timed in the same run.
// TestKernelFloors holds the pairs to their floors.

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/datasets"
	"repro/internal/gf256"
	"repro/internal/raceflag"
)

// A kernelPair is one op of a kernel and one of its retained
// reference over the same input of bytes bytes. This harness is a copy
// of the root package's (bench_kernels_test.go); keep the copies alike.
type kernelPair struct {
	bytes       int64
	kernel, ref func(testing.TB)
}

func (p kernelPair) bench(b *testing.B) {
	b.Run("word", func(b *testing.B) { benchOp(b, p.bytes, p.kernel) })
	b.Run("scalar", func(b *testing.B) { benchOp(b, p.bytes, p.ref) })
}

func benchOp(b *testing.B, bytes int64, op func(testing.TB)) {
	b.SetBytes(bytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op(b)
	}
}

// Each side of a pair is timed kernelRounds times, taking turns, over
// enough ops to fill kernelTiming; the best timing of each side stands.
// A busy or throttled host slows a timing, never speeds one up, so the
// best of many short ones is what the code costs. A measurement that
// misses its floor is taken again, up to kernelTries in all: a host too
// busy to show the ratio once gets more chances, while a kernel that
// lost its fast path misses every time.
const (
	kernelTiming = time.Millisecond
	kernelRounds = 20
	kernelTries  = 3
)

// speedup is how many times faster p.kernel runs than p.ref: the best
// of up to kernelTries measurements, stopping at the first that reaches
// floor.
func (p kernelPair) speedup(tb testing.TB, floor float64) float64 {
	best := 0.0
	for try := 1; ; try++ {
		best = max(best, p.measure(tb))
		if best >= floor || try == kernelTries {
			return best
		}
		tb.Logf("%.2fx is below the %gx floor; measuring again", best, floor)
	}
}

// measure is one measurement of the speedup. The heap is collected
// before each timing and not during one: a kernel that allocates as
// much as its reference would otherwise pay for collections in
// proportion to how much faster it is.
func (p kernelPair) measure(tb testing.TB) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ops := [2]func(testing.TB){p.kernel, p.ref}
	var n [2]int
	var best [2]time.Duration
	for i, op := range ops {
		n[i] = 1
		for timeOps(tb, op, n[i]) < kernelTiming {
			n[i] *= 2
		}
		best[i] = time.Duration(1<<63 - 1)
	}
	for range kernelRounds {
		for i, op := range ops {
			best[i] = min(best[i], timeOps(tb, op, n[i]))
		}
	}
	return float64(best[1]) / float64(n[1]) * float64(n[0]) / float64(best[0])
}

func timeOps(tb testing.TB, op func(testing.TB), n int) time.Duration {
	runtime.GC()
	start := time.Now()
	for range n {
		op(tb)
	}
	return time.Since(start)
}

// TestKernelFloors holds the lifting transform to 2x its strided
// reference, the embedded coder to 1.8x the per-bit one (3.6-3.8x when
// the word coder landed) and, where the avx2 tier is active, the AVX2
// plane transposes to 5x the word path (10.6-12.7x when they landed).
func TestKernelFloors(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector distorts kernel timings")
	}
	type floor struct {
		name string
		pair kernelPair
		min  float64
	}
	floors := []floor{
		{"ZFPLift", liftPair(), 2},
		{"ZFPPlanes", planesPair(), 1.8},
	}
	if gf256.AtLeast(gf256.LevelAVX2) {
		floors = append(floors, floor{"ZFPTranspose", transposePair(), 5})
	} else {
		t.Logf("ZFPTranspose: skipped under the %s tier", gf256.ActiveTier())
	}
	for _, f := range floors {
		got := f.pair.speedup(t, f.min)
		t.Logf("%s: %.2fx (floor %gx)", f.name, got, f.min)
		if got < f.min {
			t.Errorf("%s runs %.2fx its reference, below the %gx floor", f.name, got, f.min)
		}
	}
}

// liftPair is a forward and an inverse 3-D transform of 256 blocks.
func liftPair() kernelPair {
	blocks := make([]int64, 64*256)
	rng := rand.New(rand.NewSource(9))
	for i := range blocks {
		blocks[i] = int64(rng.Uint64()) >> 9 //arcvet:ignore mathbits random sign-extended coefficients, wraparound is fine
	}
	return kernelPair{int64(len(blocks) * 8),
		func(testing.TB) {
			for off := 0; off < len(blocks); off += 64 {
				fwdXform(blocks[off:off+64], 3)
				invXform(blocks[off:off+64], 3)
			}
		},
		func(testing.TB) {
			for off := 0; off < len(blocks); off += 64 {
				fwdXformRef(blocks[off:off+64], 3)
				invXformRef(blocks[off:off+64], 3)
			}
		}}
}

func BenchmarkKernelZFPLift(b *testing.B) { liftPair().bench(b) }

// planesBench is one field as the embedded coder sees it under ZFP-ACC
// at 1e-3 of the value range: every block's negabinary coefficients in
// sequency order, and the lowest plane each keeps.
type planesBench struct {
	size  int
	u     []uint64 // size coefficients per block
	kmins []int    // -1: an all-zero block, which never reaches the coder
	bytes int
}

func newPlanesBench(f *datasets.Field) planesBench {
	bl := newBlocker(f.Dims)
	p := newBlockParams(Options{Mode: ModeAccuracy, Param: 1e-3 * valueRange(f.Data)}, bl.blockSize)
	pb := planesBench{size: bl.blockSize, bytes: f.SizeBytes()}
	s := getBlockScratch(bl.blockSize)
	defer putBlockScratch(s)
	for b := 0; b < bl.numBlocks; b++ {
		bl.gather(f.Data, b, s.vals)
		emax, nonzero := blockExp(s.vals)
		kmin := -1
		if nonzero {
			scale := math.Ldexp(1, fixedPointBits-emax)
			for i, v := range s.vals {
				s.coeffs[i] = int64(v * scale)
			}
			fwdXform(s.coeffs, bl.nd)
			int2uintBlock(s.u, s.coeffs, bl.perm)
			kmin = p.kminFor(emax)
		}
		pb.u = append(pb.u, s.u...)
		pb.kmins = append(pb.kmins, kmin)
	}
	return pb
}

// codePlanes runs the embedded coder alone, encode then decode, over
// every coefficient block of fields: the word coder, or the per-bit
// reference it replaced.
func codePlanes(tb testing.TB, fields []planesBench, buf []byte, got []uint64, word bool) {
	for _, f := range fields {
		unlimited := 1 + expBits + intPrec*f.size
		w := bitio.NewWriter(buf[:0])
		for i, kmin := range f.kmins {
			if kmin < 0 {
				continue
			}
			if u := f.u[i*f.size : (i+1)*f.size]; word {
				encodePlanes(w, u, f.size, kmin, unlimited)
			} else {
				encodePlanesRef(w, u, f.size, intPrec-1, kmin, 0, unlimited)
			}
		}
		r := bitio.NewReader(w.Bytes())
		for _, kmin := range f.kmins {
			if kmin < 0 {
				continue
			}
			clear(got[:f.size])
			var err error
			if word {
				err = decodePlanes(r, got[:f.size], f.size, kmin, unlimited)
			} else {
				err = decodePlanesRef(r, got[:f.size], f.size, intPrec-1, kmin, 0, unlimited)
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// planesPair codes the blocks of a 2-D and a 3-D study field. Bytes are
// field bytes, so MB/s reads like a compressor's.
func planesPair() kernelPair {
	fields := []planesBench{
		newPlanesBench(datasets.CESM(128, 256, 1)),
		newPlanesBench(datasets.NYX(32, 32, 32, 3)),
	}
	n := fields[0].bytes + fields[1].bytes
	buf, got := make([]byte, 0, n), make([]uint64, 64)
	return kernelPair{int64(n),
		func(tb testing.TB) { codePlanes(tb, fields, buf, got, true) },
		func(tb testing.TB) { codePlanes(tb, fields, buf, got, false) }}
}

// BenchmarkKernelZFPPlanes times the coder under the avx2 tier (where
// the host has it) and the word tier, and the per-bit reference.
func BenchmarkKernelZFPPlanes(b *testing.B) {
	p := planesPair()
	for _, tier := range []string{gf256.TierAVX2, gf256.TierWord} {
		b.Run(tier, func(b *testing.B) {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				b.Skip(err)
			}
			defer restore()
			benchOp(b, p.bytes, p.kernel)
		})
	}
	b.Run("scalar", func(b *testing.B) { benchOp(b, p.bytes, p.ref) })
}

// transposePair moves every group of eight planes of 256 3-D blocks of
// a study field into plane words and back into a cleared block: the
// AVX2 transpose and untranspose, against transposePlanes and the
// set-bit scatter of the word tier.
func transposePair() kernelPair {
	pb := newPlanesBench(datasets.NYX(32, 32, 32, 3))
	blocks := pb.u[:64*256]
	got := make([]uint64, 64)
	return kernelPair{int64(len(blocks) * 8),
		func(testing.TB) {
			var planes [8]uint64
			for off := 0; off < len(blocks); off += 64 {
				clear(got)
				for base := 0; base < intPrec; base += 8 {
					transposePlanesAVX2(&planes, blocks[off:off+64], base)
					untransposePlanesAVX2(&planes, got, base)
				}
			}
		},
		func(testing.TB) {
			var planes [intPrec]uint64
			for off := 0; off < len(blocks); off += 64 {
				clear(got)
				for base := 0; base < intPrec; base += 8 {
					transposePlanes(&planes, blocks[off:off+64], base)
					untransposePlanes((*[8]uint64)(planes[base:base+8]), got, base)
				}
			}
		}}
}

// BenchmarkKernelZFPTranspose times transposePair's two sides.
func BenchmarkKernelZFPTranspose(b *testing.B) {
	if !slices.Contains(gf256.Features(), gf256.TierAVX2) {
		b.Skip("no AVX2 on this host")
	}
	p := transposePair()
	b.Run("avx2", func(b *testing.B) { benchOp(b, p.bytes, p.kernel) })
	b.Run("word", func(b *testing.B) { benchOp(b, p.bytes, p.ref) })
}

// TestCodePlanesAllocs pins a pass of the word coder to zero
// allocations.
// AllocsPerRun averages over several passes, so one stray runtime
// malloc does not read as the coder allocating.
func TestCodePlanesAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	pass := planesPair().kernel
	if allocs := testing.AllocsPerRun(10, func() { pass(t) }); allocs != 0 {
		t.Errorf("%v allocs per pass, want 0", allocs)
	}
}
