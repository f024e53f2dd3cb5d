package sz

// Kernel benchmarks consumed by `benchmeta kernels`: the word/scalar
// sub-benchmark pairs feed the speedup gates in BENCH_kernels.json.

import (
	"math"
	"math/rand"
	"testing"
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

func BenchmarkKernelSZQuantize(b *testing.B) {
	data := benchQuantField()
	eb := 1e-4
	nbytes := int64(len(data) * 8)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(nbytes)
		for i := 0; i < b.N; i++ {
			quantize(data, benchQuantDims, eb)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(nbytes)
		for i := 0; i < b.N; i++ {
			quantizeRef(data, benchQuantDims, eb)
		}
	})
}

func BenchmarkKernelSZDequantize(b *testing.B) {
	data := benchQuantField()
	eb := 1e-4
	syms, unpred := quantize(data, benchQuantDims, eb)
	nbytes := int64(len(data) * 8)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(nbytes)
		for i := 0; i < b.N; i++ {
			if _, err := dequantize(&symReader{have: syms}, benchQuantDims, eb, unpred); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(nbytes)
		for i := 0; i < b.N; i++ {
			if _, err := dequantizeRef(syms, benchQuantDims, eb, unpred); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKernelSZQuantizeMixed(b *testing.B) {
	data := benchQuantField()
	eb := 1e-4
	nbytes := int64(len(data) * 8)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(nbytes)
		for i := 0; i < b.N; i++ {
			quantizeMixed(data, benchQuantDims, eb)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(nbytes)
		for i := 0; i < b.N; i++ {
			quantizeMixedRef(data, benchQuantDims, eb)
		}
	})
}
