package arc

// Seek benchmark: the cost of reading a small range out of a large v2
// archive, against the v1 answer of decoding the whole stream. That a
// cold range read decodes only its covering chunks and a warm one
// decodes none is asserted by TestRangeReaderWarmReadsSkipDecode
// (docs/CONTAINER.md).

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

const (
	seekArchiveSize = 64 << 20 // 64 MiB original, 1 MiB chunks
	seekChunkSize   = 1 << 20
	seekRangeOff    = 17<<20 + 100000 // mid-archive, not chunk-aligned
	seekRangeLen    = 300000          // ~0.45% of the archive, one chunk
)

// seekBench lazily builds the 64 MiB v2 archive once and shares it
// across all sub-benchmarks (encoding it dominates any single run).
var seekBench struct {
	once    sync.Once
	err     error
	encoded []byte
	want    []byte // plaintext of the benchmarked range
}

func seekArchive(b *testing.B) []byte {
	b.Helper()
	seekBench.once.Do(func() {
		data := make([]byte, seekArchiveSize)
		rand.New(rand.NewSource(41)).Read(data)
		seekBench.want = append([]byte(nil), data[seekRangeOff:seekRangeOff+seekRangeLen]...)
		var buf bytes.Buffer
		eng := &core.Engine{}
		choice := core.Choice{Config: core.Config{Method: SECDED, Param: 64}, Threads: 1}
		w, err := eng.NewChunkWriterChoice(&buf, choice, core.StreamOptions{
			ChunkSize: seekChunkSize,
			Pipeline:  runtime.GOMAXPROCS(0),
			Indexed:   true,
		})
		if err != nil {
			seekBench.err = err
			return
		}
		if _, err := w.Write(data); err != nil {
			seekBench.err = err
			return
		}
		if err := w.Close(); err != nil {
			seekBench.err = err
			return
		}
		seekBench.encoded = buf.Bytes()
	})
	if seekBench.err != nil {
		b.Fatal(seekBench.err)
	}
	return seekBench.encoded
}

func BenchmarkSeek(b *testing.B) {
	encoded := seekArchive(b)

	// The v1 answer: decode the whole stream to reach any byte of it,
	// sequentially and pipelined (the honest best case of not having an
	// index).
	for _, fv := range []struct {
		name     string
		pipeline int
	}{
		{"full_seq", 1},
		{"full_pipe", runtime.GOMAXPROCS(0)},
	} {
		b.Run(fv.name, func(b *testing.B) {
			b.SetBytes(seekArchiveSize)
			for i := 0; i < b.N; i++ {
				r := core.NewChunkReaderWith(bytes.NewReader(encoded), 1,
					core.StreamOptions{Pipeline: fv.pipeline})
				n, err := io.Copy(io.Discard, r)
				if err != nil {
					b.Fatal(err)
				}
				if n != seekArchiveSize {
					b.Fatalf("decoded %d bytes, want %d", n, seekArchiveSize)
				}
			}
		})
	}

	dst := make([]byte, seekRangeLen)
	checkRange := func(b *testing.B, r *ReaderAt) {
		b.Helper()
		got, _, err := r.ReadRange(dst, seekRangeOff, seekRangeLen)
		if err != nil {
			b.Fatal(err)
		}
		if got != seekRangeLen || !bytes.Equal(dst, seekBench.want) {
			b.Fatal("ranged bytes differ from the plaintext")
		}
	}

	// Cold: a fresh reader per iteration, so every op pays the trailer
	// read, the index decode, and the covering chunk's ECC decode.
	b.Run("range_cold", func(b *testing.B) {
		b.SetBytes(seekRangeLen)
		for i := 0; i < b.N; i++ {
			r, err := OpenReaderAt(bytes.NewReader(encoded), int64(len(encoded)), RangeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			checkRange(b, r)
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Warm: one reader, range primed, so every op is a cache hit — the
	// steady state of a read-mostly consumer revisiting a hot region.
	b.Run("range_warm", func(b *testing.B) {
		r, err := OpenReaderAt(bytes.NewReader(encoded), int64(len(encoded)), RangeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		checkRange(b, r) // prime the decoded-chunk cache
		b.SetBytes(seekRangeLen)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checkRange(b, r)
		}
	})
}
