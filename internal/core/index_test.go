package core

// Container v2 footer tests: round-tripping through the indexed
// writer, trailer replica voting, the index repairing itself through
// its own ECC, and the degrade-to-scan guarantee when the footer is
// destroyed outright.

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/ecc"
)

var indexTestChoice = Choice{Config: Config{Method: ecc.MethodSECDED, Param: 64}, Threads: 1}

// encodeIndexed produces a v2 stream (and the plaintext it encodes).
func encodeIndexed(t *testing.T, chunkSize, size int, pipeline int) (stream, data []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(size)*31 + int64(chunkSize)))
	data = make([]byte, size)
	rng.Read(data)
	stream = encodeStream(t, indexTestChoice,
		StreamOptions{ChunkSize: chunkSize, Pipeline: pipeline, Indexed: true}, data)
	return stream, data
}

// openRange opens a RangeReader over an in-memory stream.
func openRange(t *testing.T, stream []byte, opts RangeOptions) *RangeReader {
	t.Helper()
	rr, err := OpenRangeReader(bytes.NewReader(stream), int64(len(stream)), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := rr.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return rr
}

// readAll drains a RangeReader's full content through ReadRange.
func readAll(t *testing.T, rr *RangeReader) []byte {
	t.Helper()
	out := make([]byte, rr.Size())
	n, _, err := rr.ReadRange(out, 0, rr.Size())
	if err != nil {
		t.Fatalf("full ReadRange: %v", err)
	}
	if int64(n) != rr.Size() {
		t.Fatalf("full ReadRange delivered %d of %d bytes", n, rr.Size())
	}
	return out
}

func TestIndexedStreamRoundTrip(t *testing.T) {
	const chunkSize, size = 4 << 10, 4<<10*5 + 777 // six chunks, short tail
	stream, data := encodeIndexed(t, chunkSize, size, 1)

	// The v2 stream is byte-for-byte the v1 stream plus a footer.
	v1 := encodeStream(t, indexTestChoice,
		StreamOptions{ChunkSize: chunkSize, Pipeline: 1}, data)
	if !bytes.HasPrefix(stream, v1) {
		t.Fatal("v2 stream does not begin with the v1 byte stream")
	}
	if len(stream) <= len(v1)+TrailerBytes {
		t.Fatalf("footer too small: %d extra bytes", len(stream)-len(v1))
	}

	// Sequential readers deliver exactly the original bytes: the
	// footer is skipped, not decoded as data.
	cr := NewChunkReaderWith(bytes.NewReader(stream), 1, StreamOptions{})
	got, err := io.ReadAll(cr)
	if err != nil {
		t.Fatalf("sequential read of v2 stream: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential read of v2 stream differs from original")
	}

	// InspectStream sees only the data chunks.
	infos, err := InspectStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 6 {
		t.Fatalf("InspectStream found %d chunks, want 6", len(infos))
	}

	// The range reader finds and trusts the index.
	rr := openRange(t, stream, RangeOptions{})
	if !rr.Indexed() {
		t.Fatal("pristine v2 stream opened unindexed")
	}
	if rr.Chunks() != 6 {
		t.Fatalf("Chunks() = %d, want 6", rr.Chunks())
	}
	if rr.Size() != int64(size) {
		t.Fatalf("Size() = %d, want %d", rr.Size(), size)
	}
	if rep := rr.IndexReport(); rep.CorrectedBits != 0 || rep.DetectedBlocks != 0 {
		t.Fatalf("pristine index reported repairs: %+v", rep)
	}
	if !bytes.Equal(readAll(t, rr), data) {
		t.Fatal("indexed full read differs from original")
	}
}

func TestIndexedPipelinedWriterMatchesSequential(t *testing.T) {
	const chunkSize, size = 2 << 10, 2<<10*7 + 19
	seq, data := encodeIndexed(t, chunkSize, size, 1)
	rng := rand.New(rand.NewSource(int64(size)*31 + int64(chunkSize)))
	check := make([]byte, size)
	rng.Read(check)
	if !bytes.Equal(check, data) {
		t.Fatal("test rng drift")
	}
	pip := encodeStream(t, indexTestChoice,
		StreamOptions{ChunkSize: chunkSize, Pipeline: 4, Indexed: true}, data)
	if !bytes.Equal(seq, pip) {
		t.Fatal("pipelined indexed stream differs from sequential")
	}
}

func TestTrailerReplicaVoting(t *testing.T) {
	stream, data := encodeIndexed(t, 4<<10, 3*4<<10, 1)
	trailer := len(stream) - TrailerBytes

	// One replica obliterated: another replica's CRC still passes.
	s := append([]byte(nil), stream...)
	for i := 0; i < trailerRecordLen; i++ {
		s[trailer+i] ^= 0xFF
	}
	rr := openRange(t, s, RangeOptions{})
	if !rr.Indexed() {
		t.Fatal("one dead trailer replica broke the index")
	}

	// Every replica damaged at a *different* offset: no CRC passes,
	// but byte-wise majority voting reconstructs the record.
	s = append([]byte(nil), stream...)
	s[trailer+2] ^= 0xA5                     // replica 0
	s[trailer+trailerRecordLen+9] ^= 0x5A    // replica 1
	s[trailer+2*trailerRecordLen+17] ^= 0x3C // replica 2
	rr = openRange(t, s, RangeOptions{})
	if !rr.Indexed() {
		t.Fatal("voting failed to recover a trailer with one bad byte per replica")
	}
	if !bytes.Equal(readAll(t, rr), data) {
		t.Fatal("data mismatch after trailer voting")
	}
}

func TestIndexRepairsItsOwnBitFlips(t *testing.T) {
	stream, data := encodeIndexed(t, 4<<10, 5*4<<10+123, 1)

	// Locate the index payload: it follows the last data chunk's
	// container, whose offset the trailer records.
	indexOff, entries, err := parseTrailer(stream)
	if err != nil {
		t.Fatal(err)
	}
	if entries != 6 {
		t.Fatalf("trailer entries = %d, want 6", entries)
	}
	payloadStart := int(indexOff) + ContainerOverheadBytes
	payloadEnd := len(stream) - TrailerBytes
	if payloadEnd-payloadStart < 64 {
		t.Fatalf("index payload implausibly small: %d bytes", payloadEnd-payloadStart)
	}

	// Flip one bit in each of three well-separated codewords — within
	// the SEC-DED budget of one bit per block.
	s := append([]byte(nil), stream...)
	flips := []int{payloadStart, payloadStart + 24, payloadStart + 48}
	for _, off := range flips {
		s[off] ^= 0x10
	}
	rr := openRange(t, s, RangeOptions{})
	if !rr.Indexed() {
		t.Fatal("bit-flipped index failed to open as indexed")
	}
	rep := rr.IndexReport()
	if rep.CorrectedBits != len(flips) {
		t.Fatalf("IndexReport().CorrectedBits = %d, want %d (%+v)", rep.CorrectedBits, len(flips), rep)
	}
	if rep.CorrectedBlocks != len(flips) || rep.DetectedBlocks != len(flips) {
		t.Fatalf("unexpected index repair accounting: %+v", rep)
	}
	if !bytes.Equal(readAll(t, rr), data) {
		t.Fatal("data mismatch after index self-repair")
	}
}

func TestDestroyedIndexDegradesToScan(t *testing.T) {
	stream, data := encodeIndexed(t, 4<<10, 4*4<<10+55, 1)
	indexOff, _, err := parseTrailer(stream)
	if err != nil {
		t.Fatal(err)
	}

	mutate := map[string]func([]byte) []byte{
		"zeroed footer": func(s []byte) []byte {
			for i := int(indexOff); i < len(s); i++ {
				s[i] = 0
			}
			return s
		},
		"truncated mid-index": func(s []byte) []byte {
			return s[:int(indexOff)+ContainerOverheadBytes+10]
		},
		"random footer": func(s []byte) []byte {
			rng := rand.New(rand.NewSource(99))
			rng.Read(s[int(indexOff):])
			return s
		},
	}
	for name, fn := range mutate {
		s := fn(append([]byte(nil), stream...))
		rr := openRange(t, s, RangeOptions{})
		if rr.Indexed() {
			// A randomized footer can never reassemble a valid CRC'd
			// trailer plus ECC'd index by chance.
			t.Fatalf("%s: still claims an intact index", name)
		}
		if rr.Size() != int64(len(data)) {
			t.Fatalf("%s: scan found %d bytes, want %d", name, rr.Size(), len(data))
		}
		if !bytes.Equal(readAll(t, rr), data) {
			t.Fatalf("%s: scan-path data mismatch", name)
		}
		if err := rr.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

func TestV1StreamOpensViaScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 3*4<<10+9)
	rng.Read(data)
	v1 := encodeStream(t, indexTestChoice, StreamOptions{ChunkSize: 4 << 10, Pipeline: 1}, data)

	rr := openRange(t, v1, RangeOptions{})
	if rr.Indexed() {
		t.Fatal("v1 stream claims a v2 index")
	}
	if rr.Chunks() != 4 {
		t.Fatalf("Chunks() = %d, want 4", rr.Chunks())
	}
	if !bytes.Equal(readAll(t, rr), data) {
		t.Fatal("v1 scan-path data mismatch")
	}
	// Partial range off the scan-built table.
	got := make([]byte, 1000)
	n, _, err := rr.ReadRange(got, 5000, 1000)
	if err != nil || n != 1000 {
		t.Fatalf("ReadRange(5000, 1000) = %d, %v", n, err)
	}
	if !bytes.Equal(got, data[5000:6000]) {
		t.Fatal("v1 partial range mismatch")
	}
}

func TestEmptyIndexedStream(t *testing.T) {
	stream, _ := encodeIndexed(t, 4<<10, 0, 1)
	rr := openRange(t, stream, RangeOptions{})
	if !rr.Indexed() {
		t.Fatal("empty v2 stream opened unindexed")
	}
	if rr.Chunks() != 0 || rr.Size() != 0 {
		t.Fatalf("empty stream: Chunks=%d Size=%d", rr.Chunks(), rr.Size())
	}
	if n, _, err := rr.ReadRange(nil, 0, 0); n != 0 || err != nil {
		t.Fatalf("empty ReadRange = %d, %v", n, err)
	}
	if _, _, err := rr.ReadRange(make([]byte, 1), 0, 1); err != io.EOF {
		t.Fatalf("read past empty stream: %v, want io.EOF", err)
	}
}
