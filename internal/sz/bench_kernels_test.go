package sz

// Kernel benchmarks: each batched kernel paired with its retained
// scalar reference, timed in the same run. TestKernelFloors holds the
// quantizer's pair to its floor.

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

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
// reference on a 3-D field.
func TestKernelFloors(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector distorts kernel timings")
	}
	const floor = 2.0
	got := quantizePair().speedup(t, floor)
	t.Logf("SZQuantize: %.2fx (floor %gx)", got, floor)
	if got < floor {
		t.Errorf("SZQuantize runs %.2fx its reference, below the %gx floor", got, floor)
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
