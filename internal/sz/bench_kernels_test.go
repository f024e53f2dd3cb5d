package sz

// Kernel benchmarks: each batched kernel paired with its retained
// scalar reference, timed in the same run. TestKernelFloors holds the
// quantizer's pair to its floor.

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/gf256"
	"repro/internal/raceflag"
)

// benchQuantDims is a 3D field, the shape where per-element predictor
// dispatch is most expensive and production fields live. 32^3 float64s
// is a 256 KiB working set — the same leave-L1-stay-in-L2 discipline
// as the root package's kernelBuf, so the measured ratio reflects the
// kernels rather than memory-bandwidth effects that shift with CPU
// frequency scaling.
var benchQuantDims = []int{32, 32, 32}

func benchQuantField() []float64 {
	n := benchQuantDims[0] * benchQuantDims[1] * benchQuantDims[2]
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/17.0) + 0.01*rng.Float64()
	}
	return data
}

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

// TestKernelFloors holds the batched quantizer to 2x its scalar
// reference on a 3-D field and, where the avx2 tier is active, the
// AVX2 Lorenzo kernels to 1x the word tier's 2-row kernels on each of
// the benchmark's three slab shapes: half the lowest of 20 runs beside
// another package's tests (2.05-2.11x; 2.4-2.7x on a quiet host).
func TestKernelFloors(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector distorts kernel timings")
	}
	type floor struct {
		name string
		pair kernelPair
		min  float64
	}
	floors := []floor{{"SZQuantize", quantizePair(), 2}}
	if gf256.AtLeast(gf256.LevelAVX2) {
		for _, f := range slabFields() {
			floors = append(floors, floor{"SZQuantizeAVX2/" + f.Name, quantizeTierPair(f), 1})
		}
	} else {
		t.Logf("SZQuantizeAVX2: skipped under the %s tier", gf256.ActiveTier())
	}
	for _, f := range floors {
		got := f.pair.speedup(t, f.min)
		t.Logf("%s: %.2fx (floor %gx)", f.name, got, f.min)
		if got < f.min {
			t.Errorf("%s runs %.2fx its reference, below the %gx floor", f.name, got, f.min)
		}
	}
}

// slabFields are one slab of each benchmark field: the shapes pressio
// cuts the checkpoint workload's CESM, Isabel and NYX fields into.
func slabFields() []*datasets.Field {
	return []*datasets.Field{
		datasets.CESM(128, 2048, 1),
		datasets.Isabel(8, 192, 192, 2),
		datasets.NYX(16, 128, 128, 3),
	}
}

// quantizeTierPair runs the kernels behind quantize on f into reused
// buffers, at an error bound of 1e-3 of f's value range: under the avx2
// tier, and under the word tier.
func quantizeTierPair(f *datasets.Field) kernelPair {
	lo, hi := f.Data[0], f.Data[0]
	for _, v := range f.Data {
		lo, hi = min(lo, v), max(hi, v)
	}
	eb := 1e-3 * (hi - lo)
	syms, recon := make([]int32, len(f.Data)), make([]float64, len(f.Data))
	under := func(tier string) func(testing.TB) {
		return func(tb testing.TB) {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				tb.Fatal(err)
			}
			quantizeRecon(f.Data, f.Dims, eb, syms, recon)
			restore()
		}
	}
	return kernelPair{int64(len(f.Data) * 8), under(gf256.TierAVX2), under(gf256.TierWord)}
}

// BenchmarkKernelSZQuantizeAVX2 times quantizeTierPair's two sides on
// each slab shape.
func BenchmarkKernelSZQuantizeAVX2(b *testing.B) {
	if !slices.Contains(gf256.Features(), gf256.TierAVX2) {
		b.Skip("no AVX2 on this host")
	}
	for _, f := range slabFields() {
		p := quantizeTierPair(f)
		b.Run(f.Name+"/avx2", func(b *testing.B) { benchOp(b, p.bytes, p.kernel) })
		b.Run(f.Name+"/word", func(b *testing.B) { benchOp(b, p.bytes, p.ref) })
	}
}

func quantizePair() kernelPair {
	data := benchQuantField()
	const eb = 1e-4
	return kernelPair{int64(len(data) * 8),
		func(testing.TB) { quantize(data, benchQuantDims, eb) },
		func(testing.TB) { quantizeRef(data, benchQuantDims, eb) }}
}

func BenchmarkKernelSZQuantize(b *testing.B) { quantizePair().bench(b) }

func BenchmarkKernelSZDequantize(b *testing.B) {
	data := benchQuantField()
	const eb = 1e-4
	syms, unpred := quantize(data, benchQuantDims, eb)
	kernelPair{int64(len(data) * 8),
		func(tb testing.TB) {
			if _, err := dequantize(nil, &symReader{have: syms}, benchQuantDims, eb, unpred); err != nil {
				tb.Fatal(err)
			}
		},
		func(tb testing.TB) {
			if _, err := dequantizeRef(syms, benchQuantDims, eb, unpred); err != nil {
				tb.Fatal(err)
			}
		}}.bench(b)
}
