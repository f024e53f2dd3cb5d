package arc

// Benchmarks of the library's own surfaces: the Table-1 engine calls,
// the ablations DESIGN.md calls out, chunk-stream pipelining, the SZ
// substrate and one fault-injection trial. The paper's figures are not
// benchmarks: `arcstudy <experiment>` regenerates each one over
// internal/experiments, whose tests assert the shape claims (who wins,
// step functions, collapse under error load).
//
// Absolute MB/s values reflect the host, not the paper's Xeon nodes.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/faultinject"
	"repro/internal/pressio"
	"repro/internal/sz"
)

// BenchmarkTable1EngineCalls measures the Table-1 engine surface: one
// call of each encode function on a 1 MiB payload.
func BenchmarkTable1EngineCalls(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data)
	b.Run("parity", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			_ = ParityEncode(data, 8, 1)
		}
	})
	b.Run("hamming", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			_ = HammingEncode(data, 64, 1)
		}
	})
	b.Run("secded", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			_ = SecdedEncode(data, 64, 1)
		}
	})
	b.Run("reed-solomon", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ReedSolomonEncode(data, 241, 15, 1024, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// BenchmarkAblationHeaderProtection compares container header handling:
// replicated+voted headers vs what a single unprotected header would
// survive, measured as recovery rate under single-bit header flips.
func BenchmarkAblationHeaderProtection(b *testing.B) {
	eng, err := core.NewEngine(core.EngineOptions{MaxThreads: 1, CacheDir: "-", SampleBytes: 32 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	data := make([]byte, 64<<10)
	enc, err := eng.Encode(data, 0.15, core.AnyBW, core.AnyECC)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	ok := 0
	n := 0
	for i := 0; i < b.N; i++ {
		mut := append([]byte(nil), enc.Encoded...)
		bit := rng.Intn(core.ContainerOverheadBytes * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		if _, err := eng.Decode(mut); err == nil {
			ok++
		}
		n++
	}
	b.ReportMetric(float64(ok)/float64(n), "header-flip-recovery")
}

// BenchmarkAblationHammingWidth compares the 8-bit and 64-bit Hamming
// codeword widths: overhead vs throughput.
func BenchmarkAblationHammingWidth(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(data)
	for _, width := range []int{8, 64} {
		width := width
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var enc []byte
			for i := 0; i < b.N; i++ {
				enc = HammingEncode(data, width, 1)
			}
			b.ReportMetric(float64(len(enc)-len(data))/float64(len(data)), "overhead")
		})
	}
}

// BenchmarkAblationParityBlock sweeps the parity interleaving block
// size: detection granularity vs overhead vs speed.
func BenchmarkAblationParityBlock(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(10)).Read(data)
	for _, bb := range []int{1, 8, 64} {
		bb := bb
		b.Run(fmt.Sprintf("block=%d", bb), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var enc []byte
			for i := 0; i < b.N; i++ {
				enc = ParityEncode(data, bb, 1)
			}
			b.ReportMetric(float64(len(enc)-len(data))/float64(len(data)), "overhead")
		})
	}
}

// BenchmarkAblationRSDeviceSize sweeps the Reed-Solomon device size:
// CRC-table overhead vs encode throughput.
func BenchmarkAblationRSDeviceSize(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(11)).Read(data)
	for _, ds := range []int{256, 1024, 4096} {
		ds := ds
		b.Run(fmt.Sprintf("devsize=%d", ds), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var enc []byte
			var err error
			for i := 0; i < b.N; i++ {
				enc, err = ReedSolomonEncode(data, 241, 15, ds, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(enc)-len(data))/float64(len(data)), "overhead")
		})
	}
}

// BenchmarkStreamPipelined measures chunk-stream throughput at
// pipeline depths 1 (the historical sequential path) and GOMAXPROCS,
// on an 8-chunk stream — the speedup of overlapping chunk encodes and
// verify/repairs across cores. Output bytes are identical at every
// depth, so this isolates scheduling, not format. A speedup needs
// spare cores: a single-core host serializes the workers and shows
// parity instead.
func BenchmarkStreamPipelined(b *testing.B) {
	eng := &core.Engine{} // Choice-based streaming needs no training state
	choice := core.Choice{Config: core.Config{Method: ReedSolomon, Param: 15}, Threads: 1}
	const chunkSize = 256 << 10
	data := make([]byte, 8*chunkSize) // 8 chunks
	rand.New(rand.NewSource(16)).Read(data)

	depths := []int{1, runtime.GOMAXPROCS(0)}
	if depths[1] < 4 {
		depths[1] = 4 // still exercise the concurrent machinery
	}
	for _, pl := range depths {
		pl := pl
		b.Run(fmt.Sprintf("encode/pipeline=%d", pl), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				w, err := eng.NewChunkWriterChoice(io.Discard, choice,
					core.StreamOptions{ChunkSize: chunkSize, Pipeline: pl})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.Write(data); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	var encoded bytes.Buffer
	w, err := eng.NewChunkWriterChoice(&encoded, choice, core.StreamOptions{ChunkSize: chunkSize, Pipeline: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	for _, pl := range depths {
		pl := pl
		b.Run(fmt.Sprintf("decode/pipeline=%d", pl), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r := core.NewChunkReaderWith(bytes.NewReader(encoded.Bytes()), 1,
					core.StreamOptions{Pipeline: pl})
				n, err := io.Copy(io.Discard, r)
				if err != nil {
					b.Fatal(err)
				}
				if n != int64(len(data)) {
					b.Fatalf("decoded %d bytes, want %d", n, len(data))
				}
			}
		})
	}
}

// BenchmarkCompressorSZ measures the SZ-like substrate itself, the
// input side of the whole pipeline.
func BenchmarkCompressorSZ(b *testing.B) {
	f := datasets.CESM(64, 128, 12)
	b.SetBytes(int64(f.SizeBytes()))
	for i := 0; i < b.N; i++ {
		if _, err := sz.Compress(f.Data, f.Dims, sz.Options{Mode: sz.ModeABS, ErrorBound: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultInjectionTrial measures one end-to-end fault-injection
// trial (flip, decode sandbox, metrics) — the unit of the whole study.
func BenchmarkFaultInjectionTrial(b *testing.B) {
	f := datasets.CESM(32, 64, 13)
	comp, err := newStudyCompressor()
	if err != nil {
		b.Fatal(err)
	}
	camp, err := faultinject.Run(faultinject.Config{
		Compressor: comp,
		Data:       f.Data,
		Dims:       f.Dims,
		MaxTrials:  1,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = camp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultinject.Run(faultinject.Config{
			Compressor: comp,
			Data:       f.Data,
			Dims:       f.Dims,
			MaxTrials:  10,
			Seed:       int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// newStudyCompressor returns the default study configuration
// (SZ-ABS, eps = 0.1) through the pressio registry.
func newStudyCompressor() (pressio.Compressor, error) {
	return pressio.New("SZ-ABS", 0.1)
}

// BenchmarkAblationBurstProtection compares the two burst-capable
// methods: interleaved SEC-DED (12.5% overhead, permutation cost) vs
// Reed-Solomon (tunable overhead, matrix cost) on encode throughput.
func BenchmarkAblationBurstProtection(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(14)).Read(data)
	for _, cfg := range []core.Config{
		{Method: ILSECDED, Param: 256},
		{Method: ReedSolomon, Param: 32},
	} {
		cfg := cfg
		b.Run(cfg.String(), func(b *testing.B) {
			code, err := cfg.Build(1)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			var enc []byte
			for i := 0; i < b.N; i++ {
				enc, _ = code.EncodeTo(nil, data, nil)
			}
			b.ReportMetric(float64(len(enc)-len(data))/float64(len(data)), "overhead")
		})
	}
}
