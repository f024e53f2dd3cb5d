package core

// Tests for the pipelined chunk stream: byte-identity against the
// sequential path, ordering, error-first semantics, and — because the
// pipeline spawns goroutines — leak checks for every way a stream can
// end (clean EOF, mid-stream damage, truncation, Close without drain,
// failing sink). All of these run under `go test -race ./...` in CI.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ecc"
)

// streamTestEngine returns an engine usable for Choice-based streaming
// without any training state.
func streamTestEngine(threads int) *Engine {
	return &Engine{maxThreads: threads}
}

// encodeStream encodes data with the given choice and options,
// failing the test on any error.
func encodeStream(t testing.TB, choice Choice, opts StreamOptions, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := streamTestEngine(4).NewChunkWriterChoice(&buf, choice, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d != emitted %d", cw.BytesWritten(), buf.Len())
	}
	return buf.Bytes()
}

// settleDeadline mirrors internal/parallel's leak tests.
const settleDeadline = 2 * time.Second

func goroutinesSettleTo(base int) bool {
	deadline := time.Now().Add(settleDeadline)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return false
}

func checkNoLeaks(t *testing.T, base int) {
	t.Helper()
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live after drain, started with %d",
			runtime.NumGoroutine(), base)
	}
}

var pipelineTestChoice = Choice{Config: Config{Method: ecc.MethodSECDED, Param: 64}, Threads: 1}

func TestPipelinedWriterByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, size := range []int{0, 1, 1 << 10, 8<<10 + 333} {
		data := make([]byte, size)
		rng.Read(data)
		opts := StreamOptions{ChunkSize: 1 << 10}
		opts.Pipeline = 1
		sequential := encodeStream(t, pipelineTestChoice, opts, data)
		for _, pl := range []int{2, 4, 7} {
			opts.Pipeline = pl
			if got := encodeStream(t, pipelineTestChoice, opts, data); !bytes.Equal(got, sequential) {
				t.Fatalf("size %d pipeline %d: output differs from sequential", size, pl)
			}
		}
	}
}

func TestPipelinedReaderRoundTripAndReport(t *testing.T) {
	base := runtime.NumGoroutine()
	data := make([]byte, 20<<10+77)
	rand.New(rand.NewSource(102)).Read(data)
	enc := encodeStream(t, pipelineTestChoice, StreamOptions{ChunkSize: 2 << 10, Pipeline: 4}, data)

	for _, pl := range []int{1, 3, 8} {
		cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: pl})
		got, err := io.ReadAll(cr)
		if err != nil {
			t.Fatalf("pipeline %d: %v", pl, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pipeline %d: round trip mismatch", pl)
		}
		if want := 11; cr.Report().Chunks != want { // ceil((20K+77)/2K)
			t.Fatalf("pipeline %d: %d chunks, want %d", pl, cr.Report().Chunks, want)
		}
	}
	checkNoLeaks(t, base)
}

func TestPipelinedReaderRepairsAndCountsCorrections(t *testing.T) {
	data := make([]byte, 16<<10)
	rand.New(rand.NewSource(103)).Read(data)
	enc := encodeStream(t, pipelineTestChoice, StreamOptions{ChunkSize: 2 << 10, Pipeline: 1}, data)
	// One bit flip per chunk payload, clear of the replicated header.
	chunkLen := len(enc) / 8
	for c := 0; c < 8; c++ {
		enc[c*chunkLen+ContainerOverheadBytes+100] ^= 0x04
	}
	cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: 4})
	got, err := io.ReadAll(cr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("repaired stream mismatch")
	}
	rep := cr.Report()
	if rep.CorrectedBlocks < 8 || rep.CorrectedBits < 8 {
		t.Fatalf("report undercounts pipelined repairs: %+v", rep)
	}
}

// TestChunkErrorsNameOneOrdinal: the stream reader and the range
// reader name a damaged chunk by the same 0-based ordinal, sequential
// or pipelined, and return the same *ChunkError for it.
func TestChunkErrorsNameOneOrdinal(t *testing.T) {
	data := make([]byte, 6<<10)
	rand.New(rand.NewSource(105)).Read(data)
	choice := Choice{Config: Config{Method: ecc.MethodParity, Param: 8}, Threads: 1}
	clean := encodeStream(t, choice, StreamOptions{ChunkSize: 2 << 10, Pipeline: 1}, data)
	if len(clean)%3 != 0 {
		t.Fatalf("%d encoded bytes are not three equal chunks", len(clean))
	}
	chunkLen := len(clean) / 3
	for _, ord := range []int{0, 1} {
		// Parity detects but cannot correct: a payload flip in chunk ord
		// of the three is terminal.
		enc := append([]byte(nil), clean...)
		enc[ord*chunkLen+ContainerOverheadBytes+50] ^= 0x01
		want := ChunkError{Ordinal: ord, Offset: int64(ord * chunkLen), OrigStart: int64(ord) << 11,
			OrigLen: 2 << 10, Config: choice.Config}
		prefix := fmt.Sprintf("chunk %d: ", ord)
		check := func(reader string, pipeline int, err error) {
			t.Helper()
			var ce *ChunkError
			if !errors.Is(err, ecc.ErrUncorrectable) || !strings.HasPrefix(fmt.Sprint(err), prefix) || !errors.As(err, &ce) {
				t.Errorf("pipeline %d: %s error %q, want a *ChunkError wrapping ErrUncorrectable, starting %q", pipeline, reader, err, prefix)
				return
			}
			got := *ce
			got.Err = nil // checked above
			if got != want {
				t.Errorf("pipeline %d: %s error %+v, want %+v", pipeline, reader, got, want)
			}
		}
		for _, pipeline := range []int{1, 4} {
			cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: pipeline})
			_, err := io.ReadAll(cr)
			check("ChunkReader", pipeline, err)
			rr, err := OpenRangeReader(bytes.NewReader(enc), int64(len(enc)), RangeOptions{Pipeline: pipeline})
			if err != nil {
				t.Fatal(err)
			}
			if rr.Chunks() != 3 {
				t.Fatalf("stream has %d chunks, want 3", rr.Chunks())
			}
			_, _, err = rr.ReadRange(make([]byte, len(data)), 0, int64(len(data)))
			check("ReadRange", pipeline, err)
			if err := rr.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPipelinedReaderMidStreamErrorWinsInOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	data := make([]byte, 16<<10)
	rand.New(rand.NewSource(104)).Read(data)
	// Parity detects but cannot correct, so a payload flip is terminal.
	choice := Choice{Config: Config{Method: ecc.MethodParity, Param: 8}, Threads: 1}
	enc := encodeStream(t, choice, StreamOptions{ChunkSize: 2 << 10, Pipeline: 1}, data)
	chunkLen := len(enc) / 8
	// Damage chunks 3 and 6: the error for chunk 3 must win, with
	// chunks 0-2 delivered intact first.
	enc[3*chunkLen+ContainerOverheadBytes+50] ^= 0x01
	enc[6*chunkLen+ContainerOverheadBytes+50] ^= 0x01

	cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: 8})
	got, err := io.ReadAll(cr)
	if !errors.Is(err, ecc.ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", err)
	}
	wantPrefix := 3 * (2 << 10)
	if len(got) != wantPrefix {
		t.Fatalf("delivered %d bytes before failure, want %d", len(got), wantPrefix)
	}
	if !bytes.Equal(got, data[:wantPrefix]) {
		t.Fatal("intact prefix corrupted")
	}
	if want := "chunk 3:"; err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the failing chunk (%s)", err, want)
	}
	// A failed stream read must not strand producer or workers.
	checkNoLeaks(t, base)
	// And further reads keep returning the same error.
	if _, err2 := cr.Read(make([]byte, 16)); !errors.Is(err2, ecc.ErrUncorrectable) {
		t.Fatalf("repeat read after error = %v", err2)
	}
}

func TestPipelinedReaderTruncatedInput(t *testing.T) {
	base := runtime.NumGoroutine()
	data := make([]byte, 8<<10)
	rand.New(rand.NewSource(105)).Read(data)
	enc := encodeStream(t, pipelineTestChoice, StreamOptions{ChunkSize: 1 << 10, Pipeline: 1}, data)
	for _, cut := range []int{len(enc) - 3, len(enc) - ContainerOverheadBytes/2, 3} {
		cr := NewChunkReaderWith(bytes.NewReader(enc[:cut]), 1, StreamOptions{Pipeline: 4})
		_, err := io.ReadAll(cr)
		if err == nil || err == io.EOF {
			t.Fatalf("cut %d: truncated stream must be an error, got %v", cut, err)
		}
		if !errors.Is(err, ErrContainer) {
			t.Fatalf("cut %d: want ErrContainer, got %v", cut, err)
		}
	}
	checkNoLeaks(t, base)
}

func TestPipelinedReaderCloseWithoutDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(106)).Read(data)
	enc := encodeStream(t, pipelineTestChoice, StreamOptions{ChunkSize: 1 << 10, Pipeline: 1}, data)

	// Close after a partial read: in-flight decodes must be cancelled
	// and joined, not abandoned.
	cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: 8})
	buf := make([]byte, 700)
	if _, err := io.ReadFull(cr, buf); err != nil {
		t.Fatal(err)
	}
	if err := cr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Read(buf); err == nil || err == io.EOF {
		t.Fatalf("read after Close = %v, want a closed error", err)
	}
	// Close before any read: no goroutines were ever started.
	cr2 := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: 8})
	if err := cr2.Close(); err != nil {
		t.Fatal(err)
	}
	// Double Close is a no-op.
	if err := cr.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, base)
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct {
	n       int
	written int
}

var errSinkFull = errors.New("sink full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errSinkFull
	}
	f.written += len(p)
	return len(p), nil
}

func TestPipelinedWriterSinkErrorCancelsAndJoins(t *testing.T) {
	base := runtime.NumGoroutine()
	data := make([]byte, 1<<10)
	rand.New(rand.NewSource(107)).Read(data)
	cw, err := streamTestEngine(4).NewChunkWriterChoice(
		&failingWriter{n: 3 << 10}, pipelineTestChoice, StreamOptions{ChunkSize: 1 << 10, Pipeline: 4})
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for i := 0; i < 64 && werr == nil; i++ {
		_, werr = cw.Write(data)
	}
	if !errors.Is(werr, errSinkFull) {
		t.Fatalf("Write surfaced %v, want the sink error", werr)
	}
	if cerr := cw.Close(); !errors.Is(cerr, errSinkFull) {
		t.Fatalf("Close = %v, want the sink error", cerr)
	}
	if _, err := cw.Write(data); err == nil {
		t.Fatal("write after failed Close must error")
	}
	checkNoLeaks(t, base)
}

func TestPipelinedWriterCloseIsTheOnlyJoinNeeded(t *testing.T) {
	base := runtime.NumGoroutine()
	var buf bytes.Buffer
	cw, err := streamTestEngine(4).NewChunkWriterChoice(&buf, pipelineTestChoice,
		StreamOptions{ChunkSize: 512, Pipeline: 6})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16<<10+100)
	rand.New(rand.NewSource(108)).Read(data)
	if _, err := cw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything must be emitted and accounted for by the time Close
	// returns.
	if cw.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d != emitted %d after Close", cw.BytesWritten(), buf.Len())
	}
	got, err := io.ReadAll(NewChunkReaderWith(bytes.NewReader(buf.Bytes()), 1, StreamOptions{}))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip after pipelined Close: err=%v", err)
	}
	checkNoLeaks(t, base)
}

func TestPipelineDefaultsAndSequentialFallback(t *testing.T) {
	// Pipeline <= 0 must resolve to the worker budget; 1 must never
	// allocate pipeline machinery.
	var buf bytes.Buffer
	cw, err := streamTestEngine(3).NewChunkWriterChoice(&buf, pipelineTestChoice, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cw.pipeline != 3 {
		t.Fatalf("writer default pipeline = %d, want engine threads 3", cw.pipeline)
	}
	_ = cw.Close()
	cr := NewChunkReaderWith(bytes.NewReader(nil), 5, StreamOptions{})
	if cr.pipeline != 5 {
		t.Fatalf("reader default pipeline = %d, want workers 5", cr.pipeline)
	}
	seq := NewChunkReaderWith(bytes.NewReader(nil), 1, StreamOptions{Pipeline: 1})
	if _, err := seq.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("sequential empty stream: %v", err)
	}
	if seq.pipe != nil {
		t.Fatal("sequential reader must not build a pipe")
	}
}

func TestPipelinedWriterManyChunksOrdered(t *testing.T) {
	// A chunk count far above the window forces recycling of every
	// pipeline slot; ordering is verified by the round trip.
	data := make([]byte, 100*256+13)
	rand.New(rand.NewSource(111)).Read(data)
	opts := StreamOptions{ChunkSize: 256}
	opts.Pipeline = 1
	want := encodeStream(t, pipelineTestChoice, opts, data)
	opts.Pipeline = 5
	got := encodeStream(t, pipelineTestChoice, opts, data)
	if !bytes.Equal(got, want) {
		t.Fatal("101-chunk pipelined stream differs from sequential")
	}
	rt, err := io.ReadAll(NewChunkReaderWith(bytes.NewReader(got), 1, StreamOptions{Pipeline: 5}))
	if err != nil || !bytes.Equal(rt, data) {
		t.Fatalf("round trip: err=%v", err)
	}
}

func TestStreamOptionsNormalize(t *testing.T) {
	for _, tc := range []struct {
		in     StreamOptions
		budget int
		want   StreamOptions
	}{
		{StreamOptions{}, 4, StreamOptions{ChunkSize: DefaultChunkSize, Pipeline: 4}},
		{StreamOptions{ChunkSize: 99, Pipeline: 2}, 4, StreamOptions{ChunkSize: 99, Pipeline: 2}},
		{StreamOptions{Pipeline: -1}, 2, StreamOptions{ChunkSize: DefaultChunkSize, Pipeline: 2}},
		{StreamOptions{}, 0, StreamOptions{ChunkSize: DefaultChunkSize, Pipeline: runtime.GOMAXPROCS(0)}},
	} {
		if got := tc.in.normalize(tc.budget); got != tc.want {
			t.Fatalf("normalize(%+v, %d) = %+v, want %+v", tc.in, tc.budget, got, tc.want)
		}
	}
}

func TestNewChunkWriterChoiceRejectsInvalidConfig(t *testing.T) {
	var buf bytes.Buffer
	bad := Choice{Config: Config{Method: ecc.MethodHamming, Param: 13}, Threads: 1}
	if _, err := streamTestEngine(1).NewChunkWriterChoice(&buf, bad, StreamOptions{}); err == nil {
		t.Fatal("invalid configuration must be rejected at construction")
	}
}

// Example-style sanity check that the sequential reader and the
// pipelined reader agree on a damaged-then-repaired stream.
func TestSequentialAndPipelinedReadersAgree(t *testing.T) {
	data := make([]byte, 24<<10)
	rand.New(rand.NewSource(112)).Read(data)
	enc := encodeStream(t, pipelineTestChoice, StreamOptions{ChunkSize: 4 << 10, Pipeline: 1}, data)
	enc[2*(len(enc)/6)+ContainerOverheadBytes+9] ^= 0x20 // one repairable flip

	results := map[int]string{}
	for _, pl := range []int{1, 4} {
		cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: pl})
		got, err := io.ReadAll(cr)
		if err != nil {
			t.Fatal(err)
		}
		results[pl] = fmt.Sprintf("%x/%+v", got[:64], cr.Report())
	}
	if results[1] != results[4] {
		t.Fatalf("sequential and pipelined disagree:\n seq: %s\npipe: %s", results[1], results[4])
	}
}
