package arc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/ecc"
)

func TestStreamRoundTrip(t *testing.T) {
	a := initTest(t, 1)
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(70)).Read(data)

	var encoded bytes.Buffer
	w, err := a.NewWriterWith(&encoded, 0.2, AnyBW, AnyECC, StreamOptions{ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Write in odd-sized pieces to exercise buffering.
	for off := 0; off < len(data); {
		n := 7919
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten() != int64(encoded.Len()) {
		t.Fatalf("BytesWritten %d != buffer %d", w.BytesWritten(), encoded.Len())
	}

	r := NewReader(bytes.NewReader(encoded.Bytes()), 1)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stream round trip mismatch")
	}
	if rep := r.Report(); rep.Chunks != 5 { // 300 KiB / 64 KiB chunks
		t.Fatalf("read %d chunks, want 5", rep.Chunks)
	}
}

func TestStreamRepairsFlips(t *testing.T) {
	a := initTest(t, 1)
	data := make([]byte, 200<<10)
	rand.New(rand.NewSource(71)).Read(data)

	var encoded bytes.Buffer
	w, err := a.NewWriterWith(&encoded, AnyMem, AnyBW, WithErrorsPerMB(1), StreamOptions{ChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// One flip per chunk region.
	buf := encoded.Bytes()
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 6; i++ {
		bit := rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 0x80 >> (bit % 8)
	}
	r := NewReader(bytes.NewReader(buf), 1)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("repaired stream mismatch")
	}
	if r.Report().CorrectedBlocks == 0 {
		t.Fatal("report shows no repairs")
	}
}

func TestStreamUncorrectableChunkStopsCleanly(t *testing.T) {
	a := initTest(t, 1)
	data := make([]byte, 128<<10)
	rand.New(rand.NewSource(73)).Read(data)
	var encoded bytes.Buffer
	w, err := a.NewWriterWith(&encoded, AnyMem, AnyBW, WithMethods(Parity), StreamOptions{ChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	buf := encoded.Bytes()
	// Corrupt the *second* chunk's payload (parity detects, cannot fix).
	chunkLen := len(buf) / 4
	buf[chunkLen+2000] ^= 0x01
	r := NewReader(bytes.NewReader(buf), 1)
	got := make([]byte, 0, len(data))
	tmp := make([]byte, 8192)
	var rerr error
	for {
		n, err := r.Read(tmp)
		got = append(got, tmp[:n]...)
		if err != nil {
			rerr = err
			break
		}
	}
	if !errors.Is(rerr, ecc.ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", rerr)
	}
	var ce *ChunkError
	if !errors.As(rerr, &ce) || ce.Ordinal != 1 || ce.Offset != int64(chunkLen) || ce.OrigStart != 32<<10 || ce.OrigLen != 32<<10 {
		t.Fatalf("want a *ChunkError for chunk 1 at encoded offset %d, got %#v", chunkLen, ce)
	}
	// Everything before the bad chunk must have been delivered intact.
	if len(got) < 32<<10 {
		t.Fatalf("only %d bytes delivered before failure", len(got))
	}
	if !bytes.Equal(got[:32<<10], data[:32<<10]) {
		t.Fatal("first chunk corrupted")
	}
}

func TestStreamEmptyAndTruncated(t *testing.T) {
	// Empty stream: immediate EOF.
	r := NewReader(bytes.NewReader(nil), 1)
	if _, err := r.Read(make([]byte, 10)); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	// Truncated mid-header.
	r = NewReader(bytes.NewReader([]byte{1, 2, 3}), 1)
	if _, err := r.Read(make([]byte, 10)); err == nil || err == io.EOF {
		t.Fatalf("truncated header must be an error, got %v", err)
	}

	a := initTest(t, 1)
	var encoded bytes.Buffer
	w, err := a.NewWriterWith(&encoded, AnyMem, AnyBW, AnyECC, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncated mid-payload.
	buf := encoded.Bytes()[:encoded.Len()-3]
	r = NewReader(bytes.NewReader(buf), 1)
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("truncated payload must error")
	}
}

func TestStreamWriteAfterClose(t *testing.T) {
	a := initTest(t, 1)
	var encoded bytes.Buffer
	w, err := a.NewWriterWith(&encoded, AnyMem, AnyBW, AnyECC, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write after close must fail")
	}
}

func TestStreamChoiceExposed(t *testing.T) {
	a := initTest(t, 1)
	var encoded bytes.Buffer
	w, err := a.NewWriterWith(&encoded, AnyMem, AnyBW, WithMethods(SECDED), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Choice().Config.Method != SECDED {
		t.Fatalf("choice %v", w.Choice().Config)
	}
	_ = w.Close()
}

func TestStreamPipelinedMatchesSequential(t *testing.T) {
	a := initTest(t, 2)
	data := make([]byte, 150<<10+19)
	rand.New(rand.NewSource(80)).Read(data)

	encode := func(pipeline int) []byte {
		var buf bytes.Buffer
		w, err := a.NewWriterWith(&buf, 0.2, AnyBW, AnyECC,
			StreamOptions{ChunkSize: 16 << 10, Pipeline: pipeline})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sequential := encode(1)
	pipelined := encode(4)
	if !bytes.Equal(sequential, pipelined) {
		t.Fatal("pipelined encode is not byte-identical to sequential")
	}

	r := NewReaderWith(bytes.NewReader(pipelined), 1, StreamOptions{Pipeline: 4})
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pipelined stream round trip mismatch")
	}
	if rep := r.Report(); rep.Chunks != 10 { // ceil((150K+19)/16K)
		t.Fatalf("read %d chunks, want 10", rep.Chunks)
	}
}

func TestStreamPipelinedReaderCloseEarly(t *testing.T) {
	a := initTest(t, 1)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(81)).Read(data)
	var encoded bytes.Buffer
	w, err := a.NewWriterWith(&encoded, AnyMem, AnyBW, AnyECC, StreamOptions{ChunkSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReaderWith(bytes.NewReader(encoded.Bytes()), 1, StreamOptions{Pipeline: 4})
	head := make([]byte, 512)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, data[:512]) {
		t.Fatal("head mismatch")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(head); err == nil {
		t.Fatal("read after Close must fail")
	}
}

func TestInspectStream(t *testing.T) {
	a := initTest(t, 1)
	data := make([]byte, 100<<10)
	rand.New(rand.NewSource(75)).Read(data)
	var encoded bytes.Buffer
	w, err := a.NewWriterWith(&encoded, 0.2, AnyBW, AnyECC, StreamOptions{ChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := InspectStream(bytes.NewReader(encoded.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("inspected %d chunks, want 4", len(infos))
	}
	total := 0
	for _, ci := range infos {
		total += ci.OrigLen
		if ci.Config != w.Choice().Config {
			t.Fatalf("chunk config %s != %s", ci.Config, w.Choice().Config)
		}
	}
	if total != len(data) {
		t.Fatalf("original sizes sum to %d, want %d", total, len(data))
	}
	// Truncated stream: error after the chunks that parsed.
	if _, err := InspectStream(bytes.NewReader(encoded.Bytes()[:encoded.Len()-5])); err == nil {
		t.Fatal("truncated stream must error")
	}
	// Empty stream inspects to nothing.
	if infos, err := InspectStream(bytes.NewReader(nil)); err != nil || len(infos) != 0 {
		t.Fatal("empty stream must inspect cleanly")
	}
}
