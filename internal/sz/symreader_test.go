package sz

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// chunkField is a smooth field with enough noise that symbols vary and
// a sprinkle of unpredictable spikes.
func chunkField(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/37.0) + 0.3*math.Cos(float64(i)/5.0) + 1e-3*float64(i%17)
		if i%9973 == 0 {
			data[i] = 1e12
		}
	}
	return data
}

// TestDecompressAcrossSymbolChunks decodes fields of more than symChunk
// symbols whose rows and regression blocks do not divide the chunk, so
// requests straddle refills, and holds Decompress to the in-memory
// path: the symbols quantize produced, dequantized by the scalar
// reference (Lorenzo) or from one slice (mixed).
func TestDecompressAcrossSymbolChunks(t *testing.T) {
	const eb = 1e-3
	for _, dims := range [][]int{{150_001}, {301, 299}, {2, 70_001}, {47, 41, 53}, {3, 5, 9001}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		if n <= symChunk {
			t.Fatalf("dims %v: %d symbols fit one chunk", dims, n)
		}
		data := chunkField(n)

		syms, unpred := quantize(data, dims, eb)
		want, err := dequantizeRef(syms, dims, eb, unpred)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Decompress(stream)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		if !sameFloats(got, want) {
			t.Fatalf("dims %v: Decompress differs from the reference dequantizer", dims)
		}

		// A section cut in half fails at a symbol past the first chunk,
		// with the index the per-symbol loop would report.
		_, _, err = Decompress(cutHuffmanSection(t, stream, len(dims)))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "symbol ") {
			t.Fatalf("dims %v: cut Huffman section: %v, want a symbol decode error", dims, err)
		}

		if len(dims) == 1 {
			continue
		}
		mr := quantizeMixed(data, dims, eb)
		want, err = dequantizeMixed(&symReader{have: mr.syms}, dims, eb, mr.unpred, mr.modes, mr.qcoeffs)
		if err != nil {
			t.Fatal(err)
		}
		stream, err = Compress(data, dims, Options{Mode: ModeABS, ErrorBound: eb, Regression: true})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err = Decompress(stream)
		if err != nil {
			t.Fatalf("dims %v mixed: %v", dims, err)
		}
		if !sameFloats(got, want) {
			t.Fatalf("dims %v mixed: Decompress differs from the one-slice path", dims)
		}
	}
}

// TestSymReaderRefills drives next with request sizes that leave every
// remainder at a refill, against the symbols one DecodeAll yields.
func TestSymReaderRefills(t *testing.T) {
	n := 3*symChunk + 12_345
	data := chunkField(n)
	syms, _ := quantize(data, []int{n}, 1e-3)
	codec, err := huffman.Build(new(encScratch).count(syms))
	if err != nil {
		t.Fatal(err)
	}
	var w bitio.Writer
	codec.EncodeAll(&w, syms)
	coded := w.Bytes()
	for _, step := range []int{1, 7, 4096, symChunk - 1, symChunk, symChunk + 1, 2*symChunk + 3} {
		r := &symReader{codec: codec, br: bitio.NewReader(coded), left: n}
		for at := 0; at < n; {
			k := min(step, n-at)
			ss, err := r.next(k)
			if err != nil {
				t.Fatalf("step %d at %d: %v", step, at, err)
			}
			for i, s := range ss {
				if s != syms[at+i] {
					t.Fatalf("step %d: symbol %d = %d, want %d", step, at+i, s, syms[at+i])
				}
			}
			at += k
		}
		if _, err := r.next(1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("step %d: reading past the promised count: %v", step, err)
		}
	}
}
