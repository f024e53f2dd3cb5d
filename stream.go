package arc

// Streaming API: protect byte streams of any length through the
// standard io.Writer / io.Reader interfaces. The stream is a sequence
// of independent self-describing chunks, so damage in one chunk never
// prevents later chunks from decoding, and a reader needs nothing but
// the stream itself.
//
// Chunk independence also makes the stream pipelinable: with a
// Pipeline of n, up to n chunks are encoded (or verified/repaired)
// concurrently while bytes are still emitted/consumed strictly in
// order. Output is byte-identical at every pipeline setting; see
// docs/STREAMING.md for the knob's semantics and guarantees.

import (
	"io"

	"repro/internal/core"
)

// StreamReport aggregates repair statistics over a streamed decode.
type StreamReport = core.Report

// StreamOptions tunes chunked streaming: ChunkSize is the plaintext
// bytes per chunk (<= 0 selects the 4 MiB default), Pipeline bounds
// how many chunks are processed concurrently (1 = strictly sequential,
// <= 0 = bounded by the worker budget), and Indexed appends the
// container v2 footer index enabling ReaderAt random access (see
// docs/CONTAINER.md).
type StreamOptions = core.StreamOptions

// Writer is a streaming ARC encoder. Bytes written are buffered into
// chunks, each protected with the configuration chosen at creation,
// and emitted to the underlying writer. Close flushes the final chunk
// and, when pipelined, joins every in-flight encode.
type Writer struct {
	cw *core.ChunkWriter
}

// NewWriter creates a streaming encoder over w under the usual three
// constraints. chunkSize <= 0 selects the 4 MiB default.
func (a *ARC) NewWriter(w io.Writer, mem, bw float64, res Resiliency, chunkSize int) (*Writer, error) {
	return a.NewWriterWith(w, mem, bw, res, StreamOptions{ChunkSize: chunkSize})
}

// NewWriterWith is NewWriter with explicit stream options (chunk size
// and encode pipelining).
func (a *ARC) NewWriterWith(w io.Writer, mem, bw float64, res Resiliency, opts StreamOptions) (*Writer, error) {
	cw, err := a.eng.NewChunkWriterWith(w, mem, bw, res, opts)
	if err != nil {
		return nil, err
	}
	return &Writer{cw: cw}, nil
}

// NewWriterChoice creates a streaming encoder with an explicit
// optimizer choice — the streaming analog of EncodeWith.
func (a *ARC) NewWriterChoice(w io.Writer, c Choice, opts StreamOptions) (*Writer, error) {
	cw, err := a.eng.NewChunkWriterChoice(w, c, opts)
	if err != nil {
		return nil, err
	}
	return &Writer{cw: cw}, nil
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) { return w.cw.Write(p) }

// ReadFrom implements io.ReaderFrom, so io.Copy into a Writer reads
// the source a chunk at a time straight into the chunk buffer.
func (w *Writer) ReadFrom(r io.Reader) (int64, error) { return w.cw.ReadFrom(r) }

// Close flushes the final chunk and joins any in-flight encodes. It
// does not close the underlying writer.
func (w *Writer) Close() error { return w.cw.Close() }

// Choice returns the configuration the stream encodes with.
func (w *Writer) Choice() Choice { return w.cw.Choice() }

// BytesWritten returns the number of encoded bytes emitted so far.
func (w *Writer) BytesWritten() int64 { return w.cw.BytesWritten() }

// Reader is a streaming ARC decoder: it verifies and repairs each
// chunk as it is consumed. Read returns an error as soon as a chunk
// with uncorrectable damage is reached; everything before it has been
// delivered intact.
type Reader struct {
	cr *core.ChunkReader
}

// NewReader creates a streaming decoder over r. workers bounds the
// per-chunk decode parallelism (AnyThreads = all CPUs).
func NewReader(r io.Reader, workers int) *Reader {
	return NewReaderWith(r, workers, StreamOptions{})
}

// NewReaderWith is NewReader with explicit stream options: Pipeline
// bounds how many chunks are read ahead and verified/repaired
// concurrently while Read consumes repaired chunks in order.
func NewReaderWith(r io.Reader, workers int, opts StreamOptions) *Reader {
	return &Reader{cr: core.NewChunkReaderWith(r, workers, opts)}
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) { return r.cr.Read(p) }

// WriteTo implements io.WriterTo, so io.Copy out of a Reader writes
// each repaired chunk in one piece; it stops where Read would fail.
func (r *Reader) WriteTo(w io.Writer) (int64, error) { return r.cr.WriteTo(w) }

// Close releases the reader without requiring a full drain: in-flight
// chunk decodes are cancelled and joined. Reading the stream to its
// terminal error (or EOF) also releases everything, but callers that
// may abandon a stream early should defer Close.
func (r *Reader) Close() error { return r.cr.Close() }

// Report returns the accumulated repair statistics.
func (r *Reader) Report() StreamReport { return r.cr.Report() }

// ChunkInfo summarizes one container of an ARC stream.
type ChunkInfo = core.ChunkInfo

// InspectStream parses an ARC stream's chunk headers without decoding
// payloads — cheap metadata access for tooling.
func InspectStream(r io.Reader) ([]ChunkInfo, error) {
	return core.InspectStream(r)
}

// io.Copy in EncodeFileWith/DecodeFileWith moves whole chunks through
// these two.
var (
	_ io.ReaderFrom = (*Writer)(nil)
	_ io.WriterTo   = (*Reader)(nil)
)
