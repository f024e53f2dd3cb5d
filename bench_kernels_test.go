package arc

// Per-kernel microbenchmarks for the word-level ECC and bit-I/O hot
// paths, each paired with its retained scalar reference so the speedup
// is measured in the same run on the same host. TestKernelFloors holds
// the pairs that carry a floor to it. See docs/KERNELS.md for how the
// kernels work and why their output is bit-identical to the references.

import (
	"hash/crc32"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
	"repro/internal/ecc/interleave"
	"repro/internal/ecc/parity"
	"repro/internal/ecc/reedsolomon"
	"repro/internal/gf256"
	"repro/internal/huffman"
	"repro/internal/raceflag"
)

// kernelBuf is the working-set size for the slice kernels: large
// enough to leave L1 but stay in L2, matching a stream chunk's scale.
const kernelBuf = 256 << 10

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// A kernelPair is one op of a kernel and one of the retained reference
// it replaced, over the same input of bytes bytes. Its BenchmarkKernel*
// times them as the word and scalar sub-benchmarks, and TestKernelFloors
// times the same closures for a floored pair. internal/sz and
// internal/zfp carry copies of this harness for their own pairs.
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

// TestKernelFloors holds each floored kernel to a speedup over its
// retained reference. The floors are about half the ratio measured when
// each kernel landed, so a miss means a kernel lost its fast path, not
// a noisy host.
func TestKernelFloors(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector slows the pure-Go kernels ~50x and leaves the assembly alone")
	}
	type floor struct {
		name string
		pair kernelPair
		min  float64
	}
	floors := []floor{
		// SEC-DED(72,64) table kernel over the per-block popcount
		// reference, EncodeTo/DecodeTo into a reused buffer (18x and
		// 8.7x when it landed).
		{"SECDED64Encode", secdedEncodePair(), 9},
		{"SECDED64Decode", secdedDecodePair(), 4},
		{"GF256MulSlice", mulSlicePair(), 2},
		// Reed-Solomon repair of 7 corrupt devices per 241+15 stripe:
		// the e x e solve over the retained K x K inversion (10-11x).
		{"RSRepair", rsRepairPair(t), 5},
		// huffman.DecodeAll over one Decode call per symbol (3.1-3.2x).
		{"HuffmanDecode", huffmanDecodePair(t), 1.6},
		// huffman.EncodeAll over one Encode call per symbol (1.95-4.31x
		// in 60 runs under load, 2.5x or more in 59). Half the lowest
		// would pass the per-symbol loop timed against itself, which
		// reads 0.99x, so the floor sits between the two.
		{"HuffmanEncode", huffmanEncodePair(t), 1.3},
	}
	if slices.Contains(gf256.Features(), "avx2") {
		// Twice the lanes should buy at least 1.5x after memory effects.
		src, dst := randBytes(kernelBuf, 12), randBytes(kernelBuf, 13)
		floors = append(floors, floor{"GF256MulSliceAVX2VsSSSE3",
			kernelPair{kernelBuf, mulSliceTier("avx2", src, dst, kernelBuf), mulSliceTier("ssse3", src, dst, kernelBuf)}, 1.5})
		// The XOR codes' AVX2 kernels over their table path, the same
		// call under the word tier (SEC-DED encode 10-11x, decode
		// 6.3-8.5x, parity8 encode 5.3-7.6x when they landed).
		floors = append(floors,
			floor{"SECDED64EncodeAVX2VsWord", tierPair(secdedEncodePair().kernel), 5},
			floor{"SECDED64DecodeAVX2VsWord", tierPair(secdedDecodePair().kernel), 3},
			floor{"Parity8EncodeAVX2VsWord", tierPair(parity8EncodeOp()), 2.5})
		// Reed-Solomon 241+15 stripe encode, one MulRows per stripe over
		// one MulSlice per device pair, both under the avx2 tier
		// (1.48-1.95x in 20 runs under load). Half the lowest would be
		// 0.74x, which the per-pair loop passes timed against itself
		// (0.99-1.27x), so the floor sits above that.
		floors = append(floors, floor{"RSEncode", rsEncodePair(t, gf256.TierAVX2), 1.3})
	}
	if slices.Contains(gf256.Features(), gf256.TierGFNI) {
		// The same pair under the gfni tier, where both sides multiply
		// with affine matrices (1.39-1.89x in 20 runs under load).
		floors = append(floors, floor{"RSEncodeGFNI", rsEncodePair(t, gf256.TierGFNI), 1.3})
		// MulSlice under gfni over avx2 on 1 KiB slices, the shape of the
		// e x e repair rebuild: one affine multiply per 32 bytes against
		// the nibble shuffles (1.37-1.81x in 20 runs under load). With
		// the gfni kernel pointed at the avx2 one the pair reads
		// 0.95-1.16x after three measurements, so the floor sits
		// between the two rather than at half the lowest.
		src, dst := randBytes(kernelBuf, 12), randBytes(kernelBuf, 13)
		floors = append(floors, floor{"GF256MulSliceGFNIVsAVX2",
			kernelPair{kernelBuf, mulSliceTier("gfni", src, dst, 1024), mulSliceTier("avx2", src, dst, 1024)}, 1.2})
	}
	floors = append(floors,
		// The chunk codec with its digest from the code's CRC over the
		// code plus a separate CRC pass, secded64 on a 4 MiB chunk
		// (encode 1.13-1.61x, decode 1.17-1.50x in 40 runs under load).
		// A chunk codec that takes the digest in a pass of its own again
		// is the reference plus a header and reads 0.98-1.01x, so the
		// floor sits between the two.
		floor{"ChunkDigestEncode", digestPair(t, false), 1.08},
		floor{"ChunkDigestDecode", digestPair(t, true), 1.08})
	if gf256.AtLeast(gf256.LevelAVX2) {
		// Per byte, 1022-byte devices over 1024-byte ones under the
		// active tier: 0.67-1.00x in 40 runs under load once the
		// len%32 tail went through the kernel, 0.46-0.52x before, when
		// it took a MulSlice per device pair.
		floors = append(floors, floor{"RSEncodeUnaligned", rsUnalignedPair(t), 0.6})
	}
	for _, f := range floors {
		got := f.pair.speedup(t, f.min)
		t.Logf("%s: %.2fx (floor %gx)", f.name, got, f.min)
		if got < f.min {
			t.Errorf("%s runs %.2fx its reference, below the %gx floor", f.name, got, f.min)
		}
	}
}

func mulSlicePair() kernelPair {
	src, dst := randBytes(kernelBuf, 1), randBytes(kernelBuf, 2)
	return kernelPair{kernelBuf,
		func(testing.TB) { gf256.MulSlice(0x1D, src, dst) },
		func(testing.TB) { gf256.MulSliceRef(0x1D, src, dst) }}
}

func BenchmarkKernelGF256MulSlice(b *testing.B) { mulSlicePair().bench(b) }

// mulSliceTier is MulSlice under the named dispatch tier, one call per
// piece bytes of src and dst.
func mulSliceTier(tier string, src, dst []byte, piece int) func(testing.TB) {
	return underTier(tier, func(testing.TB) {
		for i := 0; i < len(src); i += piece {
			gf256.MulSlice(0x1D, src[i:i+piece], dst[i:i+piece])
		}
	})
}

// underTier is op run under the named gf256 dispatch tier.
func underTier(tier string, op func(testing.TB)) func(testing.TB) {
	return func(tb testing.TB) {
		restore, err := gf256.ForceTier(tier)
		if err != nil {
			tb.Fatalf("ForceTier(%q): %v", tier, err)
		}
		op(tb)
		restore()
	}
}

// tierPair is op of kernelBuf bytes under the avx2 tier against op
// under the word tier.
func tierPair(op func(testing.TB)) kernelPair {
	return kernelPair{kernelBuf, underTier("avx2", op), underTier("word", op)}
}

// BenchmarkKernelGF256MulSliceTier measures MulSlice under every SIMD
// dispatch tier the host supports (plus the word fallback), so one run
// shows how much each vector width buys over the next.
func BenchmarkKernelGF256MulSliceTier(b *testing.B) {
	src, dst := randBytes(kernelBuf, 12), randBytes(kernelBuf, 13)
	for _, tier := range gf256.Tiers() {
		op := mulSliceTier(tier, src, dst, kernelBuf)
		b.Run(tier, func(b *testing.B) { benchOp(b, kernelBuf, op) })
	}
}

func BenchmarkKernelGF256Xor(b *testing.B) {
	src, dst := randBytes(kernelBuf, 3), randBytes(kernelBuf, 4)
	kernelPair{kernelBuf,
		func(testing.TB) { gf256.XorSlice(src, dst) },
		func(testing.TB) { gf256.XorSliceRef(src, dst) }}.bench(b)
}

func secdedEncodePair() kernelPair {
	code := hamming.NewSECDED(64, 1)
	data := randBytes(kernelBuf, 5)
	var dst []byte
	return kernelPair{kernelBuf,
		func(testing.TB) { dst, _ = code.EncodeTo(dst, data, nil) },
		func(testing.TB) { code.EncodeRef(data) }}
}

func BenchmarkKernelSECDED64Encode(b *testing.B) { secdedEncodePair().bench(b) }

// parity8EncodeOp is one parity8 EncodeTo of kernelBuf bytes into a
// reused buffer.
func parity8EncodeOp() func(testing.TB) {
	code := parity.New(8, 1)
	data := randBytes(kernelBuf, 16)
	var dst []byte
	return func(testing.TB) { dst, _ = code.EncodeTo(dst, data, nil) }
}

// BenchmarkKernelXORCodeTier runs SEC-DED(72,64) encode and decode and
// parity8 encode under every dispatch tier the host supports: the
// AVX2 kernels under avx2, the table path under the others.
func BenchmarkKernelXORCodeTier(b *testing.B) {
	ops := []struct {
		name string
		op   func(testing.TB)
	}{
		{"SECDED64Encode", secdedEncodePair().kernel},
		{"SECDED64Decode", secdedDecodePair().kernel},
		{"Parity8Encode", parity8EncodeOp()},
	}
	for _, o := range ops {
		for _, tier := range gf256.Tiers() {
			op := underTier(tier, o.op)
			b.Run(o.name+"/"+tier, func(b *testing.B) { benchOp(b, kernelBuf, op) })
		}
	}
}

// secdedDecodeInputs is a SEC-DED(72,64) encoding of kernelBuf bytes
// with one correctable flip ("word": the repair logic runs once) and
// the same at the end-to-end benchmark's fault density ("dense": one
// flip per 503 B in distinct codewords, about one step in eight).
func secdedDecodeInputs() (code *hamming.Code, enc, dense []byte) {
	code = hamming.NewSECDED(64, 1)
	enc, _ = code.EncodeTo(nil, randBytes(kernelBuf, 6), nil)
	dense = append([]byte(nil), enc...)
	for i := 100; i < kernelBuf; i += 503 {
		dense[i] ^= 0x10
	}
	enc[100] ^= 0x10
	return code, enc, dense
}

// secdedDecodeTo is one DecodeTo of enc into a reused buffer.
func secdedDecodeTo(code *hamming.Code, enc []byte) func(testing.TB) {
	var dst []byte
	return func(tb testing.TB) {
		var err error
		if dst, _, _, err = code.DecodeTo(dst, enc, kernelBuf, nil); err != nil {
			tb.Fatal(err)
		}
	}
}

func secdedDecodePair() kernelPair {
	code, enc, _ := secdedDecodeInputs()
	return kernelPair{kernelBuf, secdedDecodeTo(code, enc), func(tb testing.TB) {
		if _, _, err := code.DecodeRef(enc, kernelBuf); err != nil {
			tb.Fatal(err)
		}
	}}
}

// BenchmarkKernelSECDED64Decode times the clean-step fast path and the
// per-block reference, plus the kernel at the benchmark's fault
// density ("dense").
func BenchmarkKernelSECDED64Decode(b *testing.B) {
	secdedDecodePair().bench(b)
	code, _, dense := secdedDecodeInputs()
	op := secdedDecodeTo(code, dense)
	b.Run("dense", func(b *testing.B) { benchOp(b, kernelBuf, op) })
}

func BenchmarkKernelBitioWrite(b *testing.B) {
	const fields = 8192
	vals := make([]uint64, fields)
	widths := make([]int, fields)
	rng := rand.New(rand.NewSource(7))
	totalBits := 0
	for i := range vals {
		vals[i] = rng.Uint64()
		widths[i] = 1 + rng.Intn(32) // entropy-coder-sized fields
		totalBits += widths[i]
	}
	kernelPair{int64(totalBits / 8),
		func(testing.TB) {
			var w bitio.Writer
			for j := range vals {
				w.WriteBits(vals[j], widths[j])
			}
			w.Bytes()
		},
		func(testing.TB) {
			var w bitio.Writer
			for j := range vals {
				for k := widths[j] - 1; k >= 0; k-- {
					w.WriteBit(uint(vals[j] >> uint(k)))
				}
			}
			w.Bytes()
		}}.bench(b)
}

func BenchmarkKernelBitioRead(b *testing.B) {
	const fields = 8192
	widths := make([]int, fields)
	rng := rand.New(rand.NewSource(8))
	var w bitio.Writer
	totalBits := 0
	for i := range widths {
		widths[i] = 1 + rng.Intn(32)
		w.WriteBits(rng.Uint64(), widths[i])
		totalBits += widths[i]
	}
	buf := w.Bytes()
	kernelPair{int64(totalBits / 8),
		func(tb testing.TB) {
			r := bitio.NewReader(buf)
			for _, n := range widths {
				if _, err := r.ReadBits(n); err != nil {
					tb.Fatal(err)
				}
			}
		},
		func(tb testing.TB) {
			r := bitio.NewReader(buf)
			for _, n := range widths {
				for k := 0; k < n; k++ {
					if _, err := r.ReadBit(); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}}.bench(b)
}

// rsEncodePair is Reed-Solomon encode on the paper's 241+15 with 1 KiB
// devices, the shape protect-rs runs, under the named tier: EncodeTo
// (one MulRows per stripe) against the retained EncodeRef (one
// MulSlice per parity and data device pair, on the same tier), both
// into a kept buffer.
func rsEncodePair(tb testing.TB, tier string) kernelPair {
	code, err := reedsolomon.New(241, 15, 1024, 1)
	if err != nil {
		tb.Fatal(err)
	}
	const n = 4 * 241 * 1024
	data := randBytes(n, 9)
	var dst, ref []byte
	return kernelPair{n,
		underTier(tier, func(testing.TB) { dst, _ = code.EncodeTo(dst, data, nil) }),
		underTier(tier, func(testing.TB) { ref = code.EncodeRef(ref, data, gf256.MulSlice) })}
}

// BenchmarkKernelRSEncode runs the pair under each tier that has a
// MulRows kernel.
func BenchmarkKernelRSEncode(b *testing.B) {
	for _, tier := range []string{gf256.TierGFNI, gf256.TierAVX2} {
		if !slices.Contains(gf256.Features(), tier) {
			continue
		}
		b.Run(tier, rsEncodePair(b, tier).bench)
	}
}

// rsRepairPair is Reed-Solomon repair on the paper's 241+15 with 1 KiB
// devices and 7 random corrupt devices in every stripe (the end-to-end
// benchmark's protect-rs damage): DecodeTo with a kept output and
// scratch (an e x e system per stripe) against the retained K x K
// inversion.
func rsRepairPair(tb testing.TB) kernelPair {
	code, err := reedsolomon.New(241, 15, 1024, 1)
	if err != nil {
		tb.Fatal(err)
	}
	const n = 4 * 241 * 1024
	enc, _ := code.EncodeTo(nil, randBytes(n, 14), nil)
	rng := rand.New(rand.NewSource(15))
	stripeEnc := len(enc) / 4
	for s := 0; s < 4; s++ {
		for _, d := range rng.Perm(256)[:7] {
			enc[s*stripeEnc+d*1024+rng.Intn(1024)] ^= 0x5A
		}
	}
	var dst []byte
	var scratch ecc.Scratch
	return kernelPair{n,
		func(tb testing.TB) {
			var err error
			if dst, _, _, err = code.DecodeTo(dst, enc, n, &scratch); err != nil {
				tb.Fatal(err)
			}
		},
		func(tb testing.TB) {
			if _, _, err := code.DecodeRef(enc, n); err != nil {
				tb.Fatal(err)
			}
		}}
}

func BenchmarkKernelRSRepair(b *testing.B) { rsRepairPair(b).bench(b) }

// rsUnalignedPair is Reed-Solomon encode of four 241+15 stripes under
// the active tier at the 1022-byte devices core picks for a chunk that
// does not fill its last 4 MiB stripe, against the same at 1024-byte
// devices: what a device whose rows end in a len%32 tail costs. The
// reference's stripes hold 0.2 % more bytes, well inside the noise.
func rsUnalignedPair(tb testing.TB) kernelPair {
	encode := func(ds int) func(testing.TB) {
		code, err := reedsolomon.New(241, 15, ds, 1)
		if err != nil {
			tb.Fatal(err)
		}
		data := randBytes(4*241*ds, 9)
		var dst []byte
		return func(testing.TB) { dst, _ = code.EncodeTo(dst, data, nil) }
	}
	return kernelPair{4 * 241 * 1022, encode(1022), encode(1024)}
}

func BenchmarkKernelRSEncodeUnaligned(b *testing.B) { rsUnalignedPair(b).bench(b) }

// digestPair is the chunk codec on a 4 MiB secded64 chunk with its
// digest taken from the CRC-32C the code returns, against the code
// alone plus a separate crc32.Checksum of the chunk, the second read
// of every byte that the chunk codec made before its codes returned a
// CRC: decode (a kept output) if decode, else encode (a kept buffer).
func digestPair(tb testing.TB, decode bool) kernelPair {
	const n = 4 << 20
	data := randBytes(n, 16)
	choice := core.Choice{Config: core.Config{Method: ecc.MethodSECDED, Param: 64}, Threads: 1}
	code, err := choice.Config.Build(1)
	if err != nil {
		tb.Fatal(err)
	}
	one, err := core.EncodeContainerWith(nil, data, choice)
	if err != nil {
		tb.Fatal(err)
	}
	enc, out := one.Encoded, make([]byte, n)
	var scratch ecc.Scratch
	if decode {
		return kernelPair{n,
			func(tb testing.TB) {
				if _, err := core.DecodeContainer(out, enc, 1); err != nil {
					tb.Fatal(err)
				}
			},
			func(tb testing.TB) {
				if _, _, _, err := code.DecodeTo(out, enc[core.ContainerOverheadBytes:], n, &scratch); err != nil {
					tb.Fatal(err)
				}
				crc32.Checksum(out, ecc.Castagnoli)
			}}
	}
	return kernelPair{n,
		func(tb testing.TB) {
			if _, err := core.EncodeContainerWith(enc, data, choice); err != nil {
				tb.Fatal(err)
			}
		},
		func(testing.TB) {
			code.EncodeTo(enc[core.ContainerOverheadBytes:], data, &scratch)
			crc32.Checksum(data, ecc.Castagnoli)
		}}
}

// BenchmarkKernelChunkDigest runs the pair each way.
func BenchmarkKernelChunkDigest(b *testing.B) {
	b.Run("encode", digestPair(b, false).bench)
	b.Run("decode", digestPair(b, true).bench)
}

// BenchmarkKernelInterleaveEncode tracks the division-free bit
// transpose wrapped around SEC-DED.
func BenchmarkKernelInterleaveEncode(b *testing.B) {
	code, err := interleave.NewSECDED(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := randBytes(kernelBuf, 10)
	b.SetBytes(kernelBuf)
	for i := 0; i < b.N; i++ {
		code.EncodeTo(nil, data, nil)
	}
}

// huffmanKernelInput is what SZ hands its entropy stage: 1<<16 symbols
// over the quantizer's 65 536-symbol alphabet, two-sided geometric
// around the centre (≈5.5 bits a symbol, the benchmark fields' range)
// with one outlier in 128 anywhere in the alphabet, whose codes are
// longer than the decode tables' window.
func huffmanKernelInput(tb testing.TB) (codec *huffman.Codec, syms []int32, coded []byte) {
	rng := rand.New(rand.NewSource(11))
	const alphabet = 1 << 16
	freqs := make([]int64, alphabet)
	syms = make([]int32, 1<<16)
	for i := range syms {
		d := 0
		for d < 200 && rng.Intn(8) != 0 {
			d++
		}
		s := alphabet/2 + d*(1-2*rng.Intn(2))
		if rng.Intn(128) == 0 {
			s = rng.Intn(alphabet)
		}
		syms[i] = int32(s)
		freqs[s]++
	}
	codec, err := huffman.Build(freqs)
	if err != nil {
		tb.Fatal(err)
	}
	var w bitio.Writer
	codec.EncodeAll(&w, syms)
	return codec, syms, w.Bytes()
}

// huffmanDecodePair is DecodeAll (local bit window, two symbols per
// table lookup) against the per-symbol Decode loop it replaced in SZ,
// over the same stream.
func huffmanDecodePair(tb testing.TB) kernelPair {
	codec, syms, coded := huffmanKernelInput(tb)
	dst := make([]int32, len(syms))
	var r bitio.Reader
	return kernelPair{int64(len(coded)),
		func(tb testing.TB) {
			r = *bitio.NewReader(coded)
			if _, err := codec.DecodeAll(&r, dst); err != nil {
				tb.Fatal(err)
			}
		},
		func(tb testing.TB) {
			r = *bitio.NewReader(coded)
			for j := range dst {
				s, err := codec.Decode(&r)
				if err != nil {
					tb.Fatal(err)
				}
				dst[j] = int32(s)
			}
		}}
}

func BenchmarkKernelHuffmanDecode(b *testing.B) { huffmanDecodePair(b).bench(b) }

// huffmanEncodePair is EncodeAll (several codes per unconditional
// 8-byte store into the writer's spare capacity) against one Encode per
// symbol. Both append to a buffer already large enough, as SZ's does.
func huffmanEncodePair(tb testing.TB) kernelPair {
	codec, syms, coded := huffmanKernelInput(tb)
	buf := make([]byte, 0, len(coded)+8)
	var w bitio.Writer
	return kernelPair{int64(len(coded)),
		func(testing.TB) {
			w = *bitio.NewWriter(buf)
			codec.EncodeAll(&w, syms)
		},
		func(testing.TB) {
			w = *bitio.NewWriter(buf)
			for _, s := range syms {
				codec.Encode(&w, int(s))
			}
		}}
}

func BenchmarkKernelHuffmanEncode(b *testing.B) { huffmanEncodePair(b).bench(b) }
