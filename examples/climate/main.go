// Climate: the paper's motivating pipeline end to end. A CESM-like 2D
// cloud field is lossy-compressed with SZ-ABS (eps = 0.1), which makes
// it fragile: a single bit flip corrupts ~10% of values on average.
// Protecting the compressed bytes with ARC removes that fragility for
// a ~12.5% storage overhead — far below keeping a second copy.
package main

import (
	"fmt"
	"log"
	"math/rand"

	arc "repro"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/sz"
)

func main() {
	field := datasets.CESM(128, 256, 7)
	fmt.Printf("dataset: %s\n", field)

	const bound = 0.1
	compressed, err := sz.Compress(field.Data, field.Dims, sz.Options{Mode: sz.ModeABS, ErrorBound: bound})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SZ-ABS(eps=%g): %d -> %d bytes (CR %.1fx)\n",
		bound, field.SizeBytes(), len(compressed), float64(field.SizeBytes())/float64(len(compressed)))

	// --- Without ARC: one flip, and the science is gone. ---
	rng := rand.New(rand.NewSource(99))
	mut := append([]byte(nil), compressed...)
	bit := rng.Intn(len(mut) * 8)
	mut[bit/8] ^= 0x80 >> (bit % 8)
	if dec, dims, err := sz.Decompress(nil, mut); err != nil {
		fmt.Printf("without ARC: flip at bit %d -> decompression exception (%v)\n", bit, err)
	} else {
		_ = dims
		s := metrics.Evaluate(field.Data, dec, bound)
		fmt.Printf("without ARC: flip at bit %d -> %.1f%% of elements violate the bound (SDC!)\n",
			bit, s.PercentIncorrect)
	}

	// --- With ARC: same flip, repaired transparently. ---
	a, err := arc.Init(arc.AnyThreads)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()

	enc, err := a.Encode(compressed, arc.AnyMem, arc.AnyBW, arc.WithErrorsPerMB(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with ARC: %s, storage overhead %.2f%%\n", enc.Choice.Config, 100*enc.ActualOverhead)

	enc.Encoded[arcOffset(bit, len(enc.Encoded))] ^= 0x10 // another strike
	dec, err := a.Decode(enc.Encoded)
	if err != nil {
		log.Fatal("ARC failed to repair: ", err)
	}
	restored, _, err := sz.Decompress(nil, dec.Data)
	if err != nil {
		log.Fatal(err)
	}
	s := metrics.Evaluate(field.Data, restored, bound)
	fmt.Printf("with ARC: error repaired (%d block(s)); %.2f%% bound violations; PSNR %.1f dB\n",
		dec.Report.CorrectedBlocks, s.PercentIncorrect, s.PSNR)
}

// arcOffset maps the earlier flip position into the ARC stream bounds.
func arcOffset(bit, encLen int) int {
	off := bit / 8
	if off >= encLen {
		off = encLen / 2
	}
	return off
}
