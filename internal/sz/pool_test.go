package sz

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/safecast"
)

// TestPooledPathsAreDeterministic compresses and decompresses the same
// field repeatedly so the second and later iterations run entirely on
// pooled state (histogram, Huffman codecs, flate writer/reader). Any
// stale state leaking across reuses would break byte-identity or the
// round trip.
func TestPooledPathsAreDeterministic(t *testing.T) {
	dims := []int{32, 48}
	data := make([]float64, dims[0]*dims[1])
	for i := range data {
		data[i] = math.Sin(float64(i)*0.05) + 0.3*math.Cos(float64(i)*0.17)
	}
	for _, opts := range []Options{
		{Mode: ModeABS, ErrorBound: 1e-3},
		{Mode: ModePWREL, ErrorBound: 1e-3},
		{Mode: ModeABS, ErrorBound: 1e-3, Regression: true},
	} {
		var first []byte
		for iter := 0; iter < 4; iter++ {
			buf, err := Compress(data, dims, opts)
			if err != nil {
				t.Fatalf("%s iter %d: %v", opts.Mode, iter, err)
			}
			if iter == 0 {
				first = buf
			} else if !bytes.Equal(buf, first) {
				t.Fatalf("%s iter %d: compressed bytes differ from first run", opts.Mode, iter)
			}
			out, gotDims, err := Decompress(buf)
			if err != nil {
				t.Fatalf("%s iter %d: decompress: %v", opts.Mode, iter, err)
			}
			if len(gotDims) != 2 || gotDims[0] != dims[0] || gotDims[1] != dims[1] {
				t.Fatalf("%s iter %d: dims %v", opts.Mode, iter, gotDims)
			}
			for i, v := range out {
				if math.Abs(v-data[i]) > 2e-3 {
					t.Fatalf("%s iter %d: value %d off by %g", opts.Mode, iter, i, math.Abs(v-data[i]))
				}
			}
		}
	}
}

// TestPooledPathsConcurrent hammers the pools from many goroutines:
// sync.Pool must hand each caller private scratch, so results stay
// deterministic under concurrency (the fault-injection harness runs
// trials in parallel).
func TestPooledPathsConcurrent(t *testing.T) {
	dims := []int{16, 16}
	data := make([]float64, dims[0]*dims[1])
	for i := range data {
		data[i] = float64(i%37) * 0.25
	}
	opts := Options{Mode: ModeABS, ErrorBound: 1e-4}
	want, err := Compress(data, dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				buf, err := Compress(data, dims, opts)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, want) {
					errs <- errStreamMismatch
					return
				}
				if _, _, err := Decompress(buf); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errStreamMismatch = wrapCorrupt("concurrent compression produced a different stream")

// poolFields are fields of different sizes and shapes, so that pooled
// buffers are handed from a larger field to a smaller one and back.
func poolFields() []*datasets.Field {
	return []*datasets.Field{
		datasets.CESM(60, 90, 1),
		datasets.Isabel(5, 12, 14, 2),
		datasets.NYX(16, 17, 18, 3),
		datasets.CESM(7, 9, 4),
	}
}

// TestPooledBuffersConcurrentSizes runs Compress and Decompress of
// different-sized fields from several goroutines at once (under -race
// in the full gate): every result must be exactly what one goroutine
// computed alone, so no view of a pooled symbol, reconstruction or
// payload buffer outlives its Put, and nothing depends on what a buffer
// held before.
func TestPooledBuffersConcurrentSizes(t *testing.T) {
	fields := poolFields()
	opts := []Options{
		{Mode: ModeABS, ErrorBound: 1e-3},
		{Mode: ModePWREL, ErrorBound: 1e-2},
		{Mode: ModeABS, ErrorBound: 1e-3, Regression: true},
	}
	type result struct {
		stream []byte
		values []float64
	}
	want := make([][]result, len(fields))
	for i, f := range fields {
		for _, o := range opts {
			stream, err := Compress(f.Data, f.Dims, o)
			if err != nil {
				t.Fatal(err)
			}
			values, _, err := Decompress(stream)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], result{stream, values})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 12; iter++ {
				i := (g + iter) % len(fields)
				j := (g + iter/2) % len(opts)
				stream, err := Compress(fields[i].Data, fields[i].Dims, opts[j])
				if err != nil {
					t.Errorf("goroutine %d: compress: %v", g, err)
					return
				}
				if !bytes.Equal(stream, want[i][j].stream) {
					t.Errorf("goroutine %d: field %d opts %d: stream differs from the single-threaded one", g, i, j)
					return
				}
				values, _, err := Decompress(stream)
				if err != nil {
					t.Errorf("goroutine %d: decompress: %v", g, err)
					return
				}
				if !sameFloats(values, want[i][j].values) {
					t.Errorf("goroutine %d: field %d opts %d: values differ from the single-threaded ones", g, i, j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// cutHuffmanSection rebuilds a Lorenzo stream with its Huffman section
// cut to half its length (and the section's length field saying so):
// the header still promises every symbol, so decoding runs out of bits
// part-way through the symbol buffer.
func cutHuffmanSection(t *testing.T, stream []byte, ndims int) []byte {
	t.Helper()
	payload, err := inflate(stream[len(magic)+8:], safecast.Int(binary.LittleEndian.Uint64(stream[len(magic):])))
	if err != nil {
		t.Fatal(err)
	}
	at := len(magic) + 4 + 4*ndims + 3*8 + 4 // the section's length field
	huffLen := int(binary.LittleEndian.Uint32(payload[at:]))
	cut := append([]byte(nil), payload[:at]...)
	cut = binary.LittleEndian.AppendUint32(cut, safecast.U32(huffLen/2))
	cut = append(cut, payload[at+4:at+4+huffLen/2]...)
	cut = append(cut, payload[at+4+huffLen:]...)

	var out bytes.Buffer
	out.WriteString(magic)
	out.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(cut))))
	fw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(cut); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestDecompressAfterFailedDecode fails a decode in the middle of the
// pooled symbol buffer and then decodes good streams — a smaller field
// and the same one — on the same goroutine, which gets the same
// scratch back: the half-written symbols must not reach any result.
func TestDecompressAfterFailedDecode(t *testing.T) {
	fields := poolFields()
	big, small := fields[0], fields[3]
	opts := Options{Mode: ModeABS, ErrorBound: 1e-3}
	bigStream, err := Compress(big.Data, big.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	smallStream, err := Compress(small.Data, small.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBig, _, err := Decompress(bigStream)
	if err != nil {
		t.Fatal(err)
	}
	wantSmall, _, err := Decompress(smallStream)
	if err != nil {
		t.Fatal(err)
	}
	bad := cutHuffmanSection(t, bigStream, len(big.Dims))
	for round := 0; round < 3; round++ {
		_, _, err := Decompress(bad)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "symbol ") {
			t.Fatalf("round %d: cut Huffman section: %v, want a symbol decode error", round, err)
		}
		got, _, err := Decompress(smallStream)
		if err != nil || !sameFloats(got, wantSmall) {
			t.Fatalf("round %d: small field after a failed decode: err %v, values equal %v", round, err, sameFloats(got, wantSmall))
		}
		got, _, err = Decompress(bigStream)
		if err != nil || !sameFloats(got, wantBig) {
			t.Fatalf("round %d: same field after a failed decode: err %v, values equal %v", round, err, sameFloats(got, wantBig))
		}
	}
}
