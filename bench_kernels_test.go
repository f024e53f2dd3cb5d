package arc

// Per-kernel microbenchmarks for the word-level ECC and bit-I/O hot
// paths, each paired with its retained scalar reference so the speedup
// is measured in the same run on the same host. verify.sh records the
// results (plus host metadata) to BENCH_kernels.json and gates on the
// word/scalar ratios: >=9x for SECDED-64 encode, >=4x for its decode,
// >=2x for GF(256) MulSlice, and >=5x for Reed-Solomon repair (solve
// over ref). See docs/KERNELS.md for how the kernels work and why
// their output is bit-identical to the references.

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
	"repro/internal/ecc/interleave"
	"repro/internal/ecc/reedsolomon"
	"repro/internal/gf256"
	"repro/internal/huffman"
)

// kernelBuf is the working-set size for the slice kernels: large
// enough to leave L1 but stay in L2, matching a stream chunk's scale.
const kernelBuf = 256 << 10

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func BenchmarkKernelGF256MulSlice(b *testing.B) {
	src := randBytes(kernelBuf, 1)
	dst := randBytes(kernelBuf, 2)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBuf)
		for i := 0; i < b.N; i++ {
			gf256.MulSlice(0x1D, src, dst)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(kernelBuf)
		for i := 0; i < b.N; i++ {
			gf256.MulSliceRef(0x1D, src, dst)
		}
	})
}

// BenchmarkKernelGF256MulSliceTier measures MulSlice under every SIMD
// dispatch tier the host supports (plus the word fallback), so one run
// records how much each vector width buys over the next. benchmeta
// gates the avx2/ssse3 ratio on hosts that report AVX2.
func BenchmarkKernelGF256MulSliceTier(b *testing.B) {
	src := randBytes(kernelBuf, 12)
	dst := randBytes(kernelBuf, 13)
	for _, tier := range gf256.Tiers() {
		b.Run(tier, func(b *testing.B) {
			restore, err := gf256.ForceTier(tier)
			if err != nil {
				b.Fatalf("ForceTier(%q): %v", tier, err)
			}
			defer restore()
			b.SetBytes(kernelBuf)
			for i := 0; i < b.N; i++ {
				gf256.MulSlice(0x1D, src, dst)
			}
		})
	}
}

func BenchmarkKernelGF256Xor(b *testing.B) {
	src := randBytes(kernelBuf, 3)
	dst := randBytes(kernelBuf, 4)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBuf)
		for i := 0; i < b.N; i++ {
			gf256.XorSlice(src, dst)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(kernelBuf)
		for i := 0; i < b.N; i++ {
			gf256.XorSliceRef(src, dst)
		}
	})
}

func BenchmarkKernelSECDED64Encode(b *testing.B) {
	code := hamming.NewExtended(64, 1, "secded64")
	data := randBytes(kernelBuf, 5)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBuf)
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst = code.EncodeTo(dst, data, nil)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(kernelBuf)
		for i := 0; i < b.N; i++ {
			code.EncodeRef(data)
		}
	})
}

// BenchmarkKernelSECDED64Decode times the clean-step fast path ("word":
// one correctable flip in 256 KiB, so the repair logic runs once) and
// the mismatch path at the end-to-end benchmark's fault density
// ("dense": one flip per 503 B in distinct codewords, about one step in
// eight), both against the per-block reference.
func BenchmarkKernelSECDED64Decode(b *testing.B) {
	code := hamming.NewExtended(64, 1, "secded64")
	data := randBytes(kernelBuf, 6)
	enc := code.Encode(data)
	dense := append([]byte(nil), enc...)
	for i := 100; i < kernelBuf; i += 503 {
		dense[i] ^= 0x10
	}
	enc[100] ^= 0x10
	for _, bc := range []struct {
		name string
		enc  []byte
	}{{"word", enc}, {"dense", dense}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(kernelBuf)
			var dst []byte
			for i := 0; i < b.N; i++ {
				var err error
				if dst, _, err = code.DecodeTo(dst, bc.enc, kernelBuf, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(kernelBuf)
		for i := 0; i < b.N; i++ {
			if _, _, err := code.DecodeRef(enc, kernelBuf); err != nil {
				b.Fatal(err)
			}
		}
	})
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
	b.Run("word", func(b *testing.B) {
		b.SetBytes(int64(totalBits / 8))
		for i := 0; i < b.N; i++ {
			var w bitio.Writer
			for j := range vals {
				w.WriteBits(vals[j], widths[j])
			}
			w.Bytes()
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(totalBits / 8))
		for i := 0; i < b.N; i++ {
			var w bitio.Writer
			for j := range vals {
				for k := widths[j] - 1; k >= 0; k-- {
					w.WriteBit(uint(vals[j] >> uint(k)))
				}
			}
			w.Bytes()
		}
	})
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
	b.Run("word", func(b *testing.B) {
		b.SetBytes(int64(totalBits / 8))
		for i := 0; i < b.N; i++ {
			r := bitio.NewReader(buf)
			for _, n := range widths {
				if _, err := r.ReadBits(n); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(totalBits / 8))
		for i := 0; i < b.N; i++ {
			r := bitio.NewReader(buf)
			for _, n := range widths {
				for k := 0; k < n; k++ {
					if _, err := r.ReadBit(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkKernelRSEncode tracks the Reed-Solomon stripe encoder built
// on the word-level gf256 kernels (no scalar pair: the inner kernel's
// ratio is measured by BenchmarkKernelGF256MulSlice).
func BenchmarkKernelRSEncode(b *testing.B) {
	code, err := reedsolomon.New(8, 2, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := randBytes(kernelBuf, 9)
	b.SetBytes(kernelBuf)
	for i := 0; i < b.N; i++ {
		code.Encode(data)
	}
}

// BenchmarkKernelRSRepair times Reed-Solomon repair on the paper's
// 241+15 with 1 KiB devices and 7 random corrupt devices in every
// stripe (the end-to-end benchmark's protect-rs damage): "solve" is
// DecodeTo with a kept output and scratch (an e x e system per stripe),
// "ref" the retained K x K inversion. benchmeta gates solve/ref.
func BenchmarkKernelRSRepair(b *testing.B) {
	code, err := reedsolomon.New(241, 15, 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4 * 241 * 1024
	enc := code.Encode(randBytes(n, 14))
	rng := rand.New(rand.NewSource(15))
	stripeEnc := len(enc) / 4
	for s := 0; s < 4; s++ {
		for _, d := range rng.Perm(256)[:7] {
			enc[s*stripeEnc+d*1024+rng.Intn(1024)] ^= 0x5A
		}
	}
	b.Run("solve", func(b *testing.B) {
		b.SetBytes(n)
		var dst []byte
		var scratch ecc.Scratch
		for i := 0; i < b.N; i++ {
			var err error
			if dst, _, err = code.DecodeTo(dst, enc, n, &scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			if _, _, err := code.DecodeRef(enc, n); err != nil {
				b.Fatal(err)
			}
		}
	})
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
		code.Encode(data)
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

// BenchmarkKernelHuffmanDecode pairs DecodeAll (local bit window, two
// symbols per table lookup) with the per-symbol Decode loop it
// replaced in SZ, over the same stream.
func BenchmarkKernelHuffmanDecode(b *testing.B) {
	codec, syms, coded := huffmanKernelInput(b)
	dst := make([]int32, len(syms))
	b.Run("word", func(b *testing.B) {
		b.SetBytes(int64(len(coded)))
		b.ReportAllocs()
		var r bitio.Reader
		for i := 0; i < b.N; i++ {
			r = *bitio.NewReader(coded)
			if _, err := codec.DecodeAll(&r, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(len(coded)))
		b.ReportAllocs()
		var r bitio.Reader
		for i := 0; i < b.N; i++ {
			r = *bitio.NewReader(coded)
			for j := range dst {
				s, err := codec.Decode(&r)
				if err != nil {
					b.Fatal(err)
				}
				dst[j] = int32(s)
			}
		}
	})
}

// BenchmarkKernelHuffmanEncode pairs EncodeAll (codes packed in a local
// word, one WriteBits per <= 64 bits) with one Encode per symbol. Both
// append to a buffer already large enough, as SZ's does.
func BenchmarkKernelHuffmanEncode(b *testing.B) {
	codec, syms, coded := huffmanKernelInput(b)
	buf := make([]byte, 0, len(coded)+8)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(int64(len(coded)))
		b.ReportAllocs()
		var w bitio.Writer
		for i := 0; i < b.N; i++ {
			w = *bitio.NewWriter(buf)
			codec.EncodeAll(&w, syms)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(len(coded)))
		b.ReportAllocs()
		var w bitio.Writer
		for i := 0; i < b.N; i++ {
			w = *bitio.NewWriter(buf)
			for _, s := range syms {
				codec.Encode(&w, int(s))
			}
		}
	})
}
