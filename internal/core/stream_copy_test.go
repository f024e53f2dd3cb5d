package core

// ChunkWriter.ReadFrom and ChunkReader.WriteTo are what io.Copy calls
// in EncodeFileWith/DecodeFileWith. They must be the Write and Read
// loops with a copy removed: same stream, same delivered bytes, same
// report, same error.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/ecc"
)

func TestReadFromMatchesWrite(t *testing.T) {
	const chunk = 1 << 10
	sources := map[string]func(io.Reader) io.Reader{
		"plain":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
	}
	rng := rand.New(rand.NewSource(201))
	for _, size := range []int{0, 1, chunk - 1, chunk, chunk + 1, 5*chunk + 333} {
		data := make([]byte, size)
		rng.Read(data)
		for _, pl := range []int{1, 4} {
			opts := StreamOptions{ChunkSize: chunk, Pipeline: pl, Indexed: true}
			want := encodeStream(t, pipelineTestChoice, opts, data)
			for name, wrap := range sources {
				// A Write first, so ReadFrom starts inside a chunk.
				head := min(size, 100)
				var buf bytes.Buffer
				cw, err := streamTestEngine(4).NewChunkWriterChoice(&buf, pipelineTestChoice, opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cw.Write(data[:head]); err != nil {
					t.Fatal(err)
				}
				n, err := cw.ReadFrom(wrap(bytes.NewReader(data[head:])))
				if err != nil || n != int64(size-head) {
					t.Fatalf("size %d pipeline %d %s: ReadFrom = %d, %v, want %d", size, pl, name, n, err, size-head)
				}
				if err := cw.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("size %d pipeline %d %s: ReadFrom stream differs from the Write stream", size, pl, name)
				}
			}
		}
	}
}

// A source error comes back from ReadFrom, what was read before it
// stays in the stream, and the writer carries on.
func TestReadFromSourceError(t *testing.T) {
	data := make([]byte, 3<<10+17)
	rand.New(rand.NewSource(202)).Read(data)
	opts := StreamOptions{ChunkSize: 1 << 10, Pipeline: 1}
	var buf bytes.Buffer
	cw, err := streamTestEngine(4).NewChunkWriterChoice(&buf, pipelineTestChoice, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(data)
	// TimeoutReader fails its second Read; the first fills one chunk.
	n, err := cw.ReadFrom(iotest.TimeoutReader(src))
	if !errors.Is(err, iotest.ErrTimeout) || n != 1<<10 {
		t.Fatalf("ReadFrom = %d, %v, want %d and the source's error", n, err, 1<<10)
	}
	if _, err := cw.ReadFrom(src); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), encodeStream(t, pipelineTestChoice, opts, data)) {
		t.Fatal("stream after a failed ReadFrom differs from the Write stream")
	}
	if _, err := cw.ReadFrom(src); err == nil {
		t.Fatal("ReadFrom after Close must fail")
	}
}

func TestWriteToMatchesRead(t *testing.T) {
	base := runtime.NumGoroutine()
	const chunk = 2 << 10
	data := make([]byte, 8*chunk)
	rand.New(rand.NewSource(203)).Read(data)
	parity := Choice{Config: Config{Method: ecc.MethodParity, Param: 8}, Threads: 1}
	streams := map[string][]byte{
		"empty": encodeStream(t, pipelineTestChoice, StreamOptions{ChunkSize: chunk}, nil),
		"clean": encodeStream(t, pipelineTestChoice, StreamOptions{ChunkSize: chunk, Indexed: true}, data[:5*chunk+333]),
	}
	// One flip per chunk: repaired, and counted in the report.
	repaired := encodeStream(t, pipelineTestChoice, StreamOptions{ChunkSize: chunk}, data)
	for c := 0; c < 8; c++ {
		repaired[c*len(repaired)/8+ContainerOverheadBytes+100] ^= 0x04
	}
	streams["repaired"] = repaired
	// Parity cannot correct: chunk 3 ends the stream after chunks 0-2.
	broken := encodeStream(t, parity, StreamOptions{ChunkSize: chunk}, data)
	broken[3*len(broken)/8+ContainerOverheadBytes+50] ^= 0x01
	streams["uncorrectable"] = broken
	streams["truncated"] = repaired[:len(repaired)-3]

	for name, enc := range streams {
		for _, pl := range []int{1, 4} {
			rd := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: pl})
			want, wantErr := io.ReadAll(rd)
			cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: pl})
			var got bytes.Buffer
			n, err := cr.WriteTo(&got)
			if n != int64(got.Len()) || !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s pipeline %d: WriteTo wrote %d bytes (returned %d), Read delivers %d", name, pl, got.Len(), n, len(want))
			}
			if cr.Report() != rd.Report() {
				t.Fatalf("%s pipeline %d: report %+v, Read's is %+v", name, pl, cr.Report(), rd.Report())
			}
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s pipeline %d: error %v, Read's is %v", name, pl, err, wantErr)
			}
			if name == "uncorrectable" && (!errors.Is(err, ecc.ErrUncorrectable) || got.Len() != 3*chunk) {
				t.Fatalf("pipeline %d: wrote %d bytes and returned %v, want chunks 0-2 and ErrUncorrectable", pl, got.Len(), err)
			}
		}
	}

	// A failing sink: its error comes back with the bytes it took, and
	// Close joins whatever was in flight.
	cr := NewChunkReaderWith(bytes.NewReader(repaired), 1, StreamOptions{Pipeline: 4})
	n, err := cr.WriteTo(&failingWriter{n: 3 * chunk})
	if !errors.Is(err, errSinkFull) || n != 3*chunk {
		t.Fatalf("WriteTo into a full sink = %d, %v", n, err)
	}
	if err := cr.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, base)
}
