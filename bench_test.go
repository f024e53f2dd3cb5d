package arc

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, as indexed in DESIGN.md. Each benchmark regenerates the
// corresponding rows/series via internal/experiments and reports the
// headline quantity with b.ReportMetric, so `go test -bench=.` emits a
// machine-readable reproduction of the whole evaluation.
//
// Absolute MB/s values reflect this host, not the paper's Xeon nodes;
// the shape claims (who wins, step functions, collapse under error
// load) are asserted by the experiments package's own tests.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ecc/reedsolomon"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/pressio"
	"repro/internal/sz"
)

// benchStudy keeps fault-injection benchmarks snappy.
var benchStudy = experiments.StudyOptions{Scale: 1, MaxTrials: 120, Seed: 1, Workers: 1}

// BenchmarkFig1SingleFlipImpact regenerates Figure 1: the per-location
// severity of single flips in SZ-compressed Isabel-like data.
func BenchmarkFig1SingleFlipImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchStudy)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Trials) > 0 {
			b.ReportMetric(r.Trials[len(r.Trials)-1].PercentIncorrect, "worst-%incorrect")
		}
	}
}

// BenchmarkFig2ReturnStatuses regenerates Figure 2: the return-status
// distribution over all 15 (compressor, dataset) cells.
func BenchmarkFig2ReturnStatuses(b *testing.B) {
	opts := benchStudy
	opts.MaxTrials = 60
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AverageCompleted(), "%completed")
	}
}

// BenchmarkFig3ErrorBoundViolations regenerates Figure 3: mean percent
// of incorrect elements per mode on the CESM-like field.
func BenchmarkFig3ErrorBoundViolations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchStudy)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Series {
			if s.Compressor == "SZ-ABS" {
				b.ReportMetric(s.MeanPercent, "szabs-mean-%incorrect")
			}
			if s.Compressor == "ZFP-Rate" {
				b.ReportMetric(s.MeanElements, "zfprate-mean-elems")
			}
		}
	}
}

// BenchmarkFig4LossLevels regenerates Figure 4: violations at target
// compression ratios 50x/25x/13x/7x.
func BenchmarkFig4LossLevels(b *testing.B) {
	opts := benchStudy
	opts.MaxTrials = 60
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Cells {
			if c.Compressor == "SZ-ABS" && c.TargetCR == 7 {
				b.ReportMetric(c.MeanPercent, "szabs-7x-%incorrect")
			}
		}
	}
}

// BenchmarkFig5IntegrityMetrics regenerates Figure 5: bandwidth /
// max-diff / PSNR aggregates over Completed trials.
func BenchmarkFig5IntegrityMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchStudy)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Compressor == "SZ-ABS" {
				b.ReportMetric(row.MeanPSNR, "szabs-mean-psnr-dB")
			}
		}
	}
}

// BenchmarkFig6TrainingCost regenerates Figure 6: training wall time
// and configuration count vs thread cap.
func BenchmarkFig6TrainingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6([]int{1, 2, 4}, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(float64(last.Configs), "configs-trained")
		b.ReportMetric(last.TrainSeconds, "train-s")
	}
}

// BenchmarkFig8EncodeScaling regenerates Figure 8: per-ECC encode
// throughput across a thread sweep.
func BenchmarkFig8EncodeScaling(b *testing.B) {
	for _, cfg := range experiments.ScalingConfigs() {
		for _, th := range []int{1, 2, 4} {
			cfg, th := cfg, th
			b.Run(fmt.Sprintf("%s/threads=%d", cfg, th), func(b *testing.B) {
				code, err := cfg.Build(th)
				if err != nil {
					b.Fatal(err)
				}
				data := make([]byte, 1<<20)
				rand.New(rand.NewSource(1)).Read(data)
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = code.Encode(data)
				}
			})
		}
	}
}

// BenchmarkFig9DecodeScaling regenerates Figure 9: per-ECC decode
// throughput on clean data.
func BenchmarkFig9DecodeScaling(b *testing.B) {
	for _, cfg := range experiments.ScalingConfigs() {
		for _, th := range []int{1, 2, 4} {
			cfg, th := cfg, th
			b.Run(fmt.Sprintf("%s/threads=%d", cfg, th), func(b *testing.B) {
				code, err := cfg.Build(th)
				if err != nil {
					b.Fatal(err)
				}
				data := make([]byte, 1<<20)
				rand.New(rand.NewSource(2)).Read(data)
				enc := code.Encode(data)
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := code.Decode(enc, len(data)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10ErrorLoad regenerates Figure 10: decode throughput with
// 1 and 100,000 correctable errors present.
func BenchmarkFig10ErrorLoad(b *testing.B) {
	for _, errs := range []int{1, 100000} {
		errs := errs
		b.Run(fmt.Sprintf("errors=%d", errs), func(b *testing.B) {
			r, err := experiments.Fig10([]int{1}, 1<<20, []int{errs}, 3)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range r.Rows {
				if row.Config == "rs-m15" {
					b.ReportMetric(row.DecMBs, "rs-dec-MB/s")
				}
			}
			for i := 1; i < b.N; i++ { // the experiment above is the work
				_, _ = experiments.Fig10([]int{1}, 1<<20, []int{errs}, 3)
			}
		})
	}
}

// BenchmarkFig11AnyECC regenerates Figure 11: constraint tracking with
// ARC_ANY_ECC.
func BenchmarkFig11AnyECC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(2, 1, 4, []float64{0.1, 0.2, 0.5, 0.9}, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range r.MemRows {
			if gap := row.TargetOverhead - row.ChoiceOverhead; gap > worst {
				worst = gap
			}
		}
		b.ReportMetric(worst, "worst-budget-slack")
	}
}

// BenchmarkFig12SingleECC regenerates Figure 12: single-ECC target vs
// true overhead step functions.
func BenchmarkFig12SingleECC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(1, 1, 5, []float64{0.05, 0.2, 0.63, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.MemRows)), "points")
	}
}

// BenchmarkSec63Resiliency regenerates Section 6.3: the fault study
// rerun under ARC protection; the metric is the corrected fraction
// (must be 1.0).
func BenchmarkSec63Resiliency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sec63(1, 1, 40, 6)
		if err != nil {
			b.Fatal(err)
		}
		tot, cor := 0, 0
		for _, r := range rows {
			tot += r.Trials
			cor += r.Corrected
		}
		b.ReportMetric(float64(cor)/float64(tot), "corrected-fraction")
	}
}

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
// depth, so this isolates scheduling, not format. Results are recorded
// in BENCH_stream.json by verify.sh; the ≥1.5x pipelined-vs-sequential
// claim applies on hosts with ≥4 cores (a single-core host serializes
// the workers and shows parity instead).
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

// BenchmarkStreamSteady measures the steady-state per-chunk cost of
// the stream: one writer (and one reader) is reused across all b.N
// iterations, so per-stream setup is amortized away and what remains
// is the hot path the allocation budget applies to. ReportAllocs makes
// allocs/op and B/op part of the recorded output; verify.sh gates
// BENCH_stream.json on allocs/op staying within the steady-state
// budget (see docs/ALLOCATIONS.md).
func BenchmarkStreamSteady(b *testing.B) {
	eng := &core.Engine{}
	choice := core.Choice{Config: core.Config{Method: ReedSolomon, Param: 15}, Threads: 1}
	const chunkSize = 256 << 10
	chunk := make([]byte, chunkSize)
	rand.New(rand.NewSource(23)).Read(chunk)

	for _, pl := range []int{1, 4} {
		pl := pl
		opts := core.StreamOptions{ChunkSize: chunkSize, Pipeline: pl}
		b.Run(fmt.Sprintf("encode/pipeline=%d", pl), func(b *testing.B) {
			w, err := eng.NewChunkWriterChoice(io.Discard, choice, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			// Warm the buffer pools and per-worker scratch before counting.
			for i := 0; i < 4*pl+8; i++ {
				if _, err := w.Write(chunk); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(chunkSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Write(chunk); err != nil {
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
	if _, err := w.Write(chunk); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	for _, pl := range []int{1, 4} {
		pl := pl
		b.Run(fmt.Sprintf("decode/pipeline=%d", pl), func(b *testing.B) {
			r := core.NewChunkReaderWith(&loopStream{stream: encoded.Bytes()}, 1,
				core.StreamOptions{Pipeline: pl})
			defer r.Close()
			buf := make([]byte, chunkSize)
			for i := 0; i < 4*pl+8; i++ {
				if _, err := io.ReadFull(r, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(chunkSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := io.ReadFull(r, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// loopStream replays one encoded chunk stream forever, giving the
// steady-state decode benchmark an endless well-formed input.
type loopStream struct {
	stream []byte
	off    int
}

func (l *loopStream) Read(p []byte) (int, error) {
	if l.off == len(l.stream) {
		l.off = 0
	}
	n := copy(p, l.stream[l.off:])
	l.off += n
	return n, nil
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
		Compressor:     comp,
		Data:           f.Data,
		Dims:           f.Dims,
		SampleFraction: 1,
		MaxTrials:      1,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = camp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultinject.Run(faultinject.Config{
			Compressor:     comp,
			Data:           f.Data,
			Dims:           f.Dims,
			SampleFraction: 1,
			MaxTrials:      10,
			Seed:           int64(i),
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

// BenchmarkExtResilienceMatrix runs the extension experiment: the full
// ECC-method x fault-pattern recovery matrix.
func BenchmarkExtResilienceMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtResilienceMatrix(32<<10, 30, 12)
		if err != nil {
			b.Fatal(err)
		}
		silent := 0
		for _, row := range r.Rows {
			silent += row.Silent
		}
		b.ReportMetric(float64(silent), "silent-corruptions")
	}
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
				enc = code.Encode(data)
			}
			b.ReportMetric(float64(len(enc)-len(data))/float64(len(data)), "overhead")
		})
	}
}

// BenchmarkAblationCRCWidth compares Reed-Solomon device checksum
// widths: CRC-32C (miss probability 2^-32) vs truncated CRC-16
// (2^-16, two bytes per device cheaper).
func BenchmarkAblationCRCWidth(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(15)).Read(data)
	for _, width := range []int{2, 4} {
		width := width
		b.Run(fmt.Sprintf("crc%d", width*8), func(b *testing.B) {
			base, err := reedsolomon.New(241, 15, 1024, 1)
			if err != nil {
				b.Fatal(err)
			}
			code, err := base.WithChecksumBytes(width)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			var enc []byte
			for i := 0; i < b.N; i++ {
				enc = code.Encode(data)
			}
			b.ReportMetric(float64(len(enc)-len(data))/float64(len(data)), "overhead")
		})
	}
}

// BenchmarkExtCrossover runs the burst-protection crossover map; the
// metric is the recovery gap between the methods at a 512-byte burst.
func BenchmarkExtCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtCrossover(128<<10, 8, 16)
		if err != nil {
			b.Fatal(err)
		}
		covered := 0
		for _, row := range r.Rows {
			if row.BurstBytes == 512 && row.Recovered == row.Trials {
				covered++
			}
		}
		b.ReportMetric(float64(covered), "configs-covering-512B")
	}
}
