package main

// The kernel ladder: single kernels on fixed seeded inputs, measured
// in the same run as the layers built on them so that a layer's
// ns/byte can be read against the host's memmove and XOR bandwidth
// (the roofline denominators) and against the entropy-coding kernels
// under sz. The buffers are far smaller than this host's shared L3,
// so the bandwidth rows are cache-resident rates, not DRAM rates.

import (
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/ecc/interleave"
	"repro/internal/gf256"
	"repro/internal/huffman"
)

const ladderReps = 3

// best returns the shortest of ladderReps timings of f, in seconds.
func best(f func()) float64 {
	b := 0.0
	for i := 0; i < ladderReps; i++ {
		if s := timed(f); i == 0 || s < b {
			b = s
		}
	}
	return b
}

// kernelLadder measures each kernel over n bytes.
func kernelLadder(n int) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(1))
	src, dst := make([]byte, n), make([]byte, n)
	rng.Read(src)
	out := map[string]float64{}
	gbs := func(f func()) float64 { return float64(n) / 1e9 / best(f) }
	out["host.memmove.gb_s"] = gbs(func() { copy(dst, src) })
	out["host.xor.gb_s"] = gbs(func() { gf256.XorSlice(src, dst) })
	out["gf256.mulslice.gb_s"] = gbs(func() { gf256.MulSlice(0x53, src, dst) })

	// Quantization-code-like symbols: two-sided geometric around the
	// middle of a 1024-symbol alphabet, as SZ's predictor leaves them.
	const alphabet = 1024
	syms := make([]int, n/8)
	freqs := make([]int64, alphabet)
	for i := range syms {
		d := int(rng.ExpFloat64() * 3)
		if rng.Intn(2) == 0 {
			d = -d
		}
		syms[i] = min(max(alphabet/2+d, 0), alphabet-1)
		freqs[syms[i]]++
	}
	codec, err := huffman.Build(freqs)
	if err != nil {
		return nil, err
	}
	var coded []byte
	encS := best(func() {
		var w bitio.Writer
		for _, s := range syms {
			codec.Encode(&w, s)
		}
		coded = w.Bytes()
	})
	var decErr error
	decS := best(func() {
		r := bitio.NewReader(coded)
		for range syms {
			if _, err := codec.Decode(r); err != nil {
				decErr = err
				return
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}
	// Per byte of the Huffman-coded bit stream.
	out["huffman.encode.ns_per_byte"] = encS * 1e9 / float64(len(coded))
	out["huffman.decode.ns_per_byte"] = decS * 1e9 / float64(len(coded))

	// 13-bit fields, the width of a typical quantization code.
	const width = 13
	fields := n / 4 * 8 / width
	var packed []byte
	wS := best(func() {
		var w bitio.Writer
		for i := 0; i < fields; i++ {
			w.WriteBits(uint64(i), width)
		}
		packed = w.Bytes()
	})
	rS := best(func() {
		r := bitio.NewReader(packed)
		for i := 0; i < fields; i++ {
			if _, err := r.ReadBits(width); err != nil {
				decErr = err
				return
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}
	out["bitio.write.ns_per_byte"] = wS * 1e9 / float64(len(packed))
	out["bitio.read.ns_per_byte"] = rS * 1e9 / float64(len(packed))

	il, err := interleave.NewSECDED(256, 1)
	if err != nil {
		return nil, err
	}
	small := src[:min(n, 1<<20)]
	out["interleave.encode.ns_per_byte"] = best(func() { il.Encode(small) }) * 1e9 / float64(len(small))
	return out, nil
}
