package core

import (
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync/atomic"

	"repro/internal/ecc"
	"repro/internal/parallel"
)

// Streaming support: an ARC stream is a sequence of independent
// containers ("chunks"). Each chunk is self-describing, so readers
// need no side-band state, corrupted chunks fail independently, and
// chunk boundaries bound the blast radius of unrecoverable damage.
//
// Chunk independence is also what makes the stream pipelinable: the
// writer encodes up to Pipeline chunks concurrently and emits them
// strictly in order, and the reader reads ahead up to Pipeline encoded
// chunks and verifies/repairs them concurrently while Read consumes
// repaired chunks in order. Encoding is deterministic and layout never
// depends on worker count, so pipelined output is byte-identical to
// the sequential (Pipeline = 1) path.

// maxChunkPayload caps the EncLen a stream reader will allocate,
// so a corrupted-but-CRC-colliding header cannot drive an OOM.
const maxChunkPayload = 1 << 31

// DefaultChunkSize is the ChunkWriter's default chunk payload size.
const DefaultChunkSize = 4 << 20

// StreamOptions tunes the chunked stream codec.
type StreamOptions struct {
	// ChunkSize is the plaintext payload bytes per chunk (<= 0 selects
	// DefaultChunkSize).
	ChunkSize int
	// Pipeline bounds how many chunks may be encoded or decoded
	// concurrently. 1 is strictly sequential (no extra goroutines,
	// today's historical behaviour); <= 0 selects a default bounded by
	// the worker budget. Output bytes are identical either way.
	Pipeline int
	// Indexed appends the container v2 footer — an ECC+CRC-protected
	// chunk index and a replicated trailer — after the chunk stream,
	// enabling random access through RangeReader (see index.go and
	// docs/CONTAINER.md). Readers that stream sequentially skip the
	// footer, so v2 output decodes to the same bytes as v1. Ignored on
	// the read side: streams are self-describing.
	Indexed bool
}

// normalize applies the documented defaults. budget is the relevant
// worker bound (engine threads on the write side, decode workers on
// the read side); <= 0 falls back to GOMAXPROCS.
func (o StreamOptions) normalize(budget int) StreamOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.Pipeline <= 0 {
		if budget > 0 {
			o.Pipeline = budget
		} else {
			o.Pipeline = runtime.GOMAXPROCS(0)
		}
	}
	return o
}

// ChunkWriter encodes fixed-size chunks of a byte stream with one
// configuration choice and writes the containers to w.
type ChunkWriter struct {
	eng       *Engine
	w         io.Writer
	choice    Choice
	payload   *chunkBuf // accumulating plaintext chunk
	chunkSize int
	pipeline  int
	closed    bool
	err       error
	written   atomic.Int64
	flushed   int64         // original bytes handed to the encoder so far
	seq       *chunkScratch // sequential-path scratch (pipeline == 1)

	// v2 index accumulation (nil/inactive unless Indexed). Entries are
	// appended by whichever goroutine emits chunks — the caller in
	// sequential mode, the emit goroutine when pipelined — and read by
	// Close only after that goroutine is joined, so no lock is needed.
	indexed  bool
	index    []indexEntry
	nextOff  int64
	indexErr error

	// Pipelined state (nil/unused when pipeline == 1). The producer
	// (Write/Close caller) submits full chunks; encoder workers protect
	// them concurrently; the emitter goroutine writes encoded chunks to
	// w strictly in submission order. Payload and container buffers
	// circulate through chunkBufPool, so the steady state allocates
	// nothing per chunk.
	pipe     *parallel.Pipe[encChunk, encChunk]
	emitDone chan struct{}
	emitErr  atomic.Value // error; first writer-side error wins
}

// NewChunkWriter creates a streaming encoder. chunkSize <= 0 selects
// DefaultChunkSize. The configuration choice is made once, up front,
// from the given constraints.
func (e *Engine) NewChunkWriter(w io.Writer, mem, bw float64, res Resiliency, chunkSize int) (*ChunkWriter, error) {
	return e.NewChunkWriterWith(w, mem, bw, res, StreamOptions{ChunkSize: chunkSize})
}

// NewChunkWriterWith is NewChunkWriter with explicit stream options.
func (e *Engine) NewChunkWriterWith(w io.Writer, mem, bw float64, res Resiliency, opts StreamOptions) (*ChunkWriter, error) {
	choice, err := e.Optimizer().Joint(mem, bw, res)
	if err != nil {
		return nil, err
	}
	return e.NewChunkWriterChoice(w, choice, opts)
}

// NewChunkWriterChoice creates a streaming encoder with an explicit
// optimizer choice, bypassing constraint optimization (the streaming
// analog of EncodeWith). It needs no trained engine state.
func (e *Engine) NewChunkWriterChoice(w io.Writer, choice Choice, opts StreamOptions) (*ChunkWriter, error) {
	if _, err := choice.Config.Build(choice.Threads); err != nil {
		return nil, err // reject invalid configurations up front
	}
	opts = opts.normalize(e.maxThreads)
	cw := &ChunkWriter{
		eng:       e,
		w:         w,
		choice:    choice,
		payload:   getChunkBuf(opts.ChunkSize),
		chunkSize: opts.ChunkSize,
		pipeline:  opts.Pipeline,
		indexed:   opts.Indexed,
	}
	cw.payload.b = cw.payload.b[:0]
	if cw.pipeline > 1 {
		cw.pipe = parallel.NewPipeWith(cw.pipeline, cw.pipeline,
			func() *chunkScratch { return new(chunkScratch) },
			func(in encChunk, s *chunkScratch) (encChunk, error) {
				out, err := cw.encode(in.buf.b, in.off, s)
				putChunkBuf(in.buf) // payload consumed; recycle for the producer
				return out, err
			})
		cw.emitDone = make(chan struct{})
		go cw.emit()
	} else {
		cw.seq = new(chunkScratch)
	}
	return cw, nil
}

// Choice returns the configuration the writer encodes with.
func (cw *ChunkWriter) Choice() Choice { return cw.choice }

// Write implements io.Writer, buffering until a full chunk is ready.
func (cw *ChunkWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	total := 0
	for len(p) > 0 {
		room := cw.chunkSize - len(cw.payload.b)
		n := len(p)
		if n > room {
			n = room
		}
		cw.payload.b = append(cw.payload.b, p[:n]...)
		p = p[n:]
		total += n
		if len(cw.payload.b) == cw.chunkSize {
			if err := cw.flush(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// ReadFrom implements io.ReaderFrom: r is read straight into the chunk
// buffer, up to a whole chunk per Read, so io.Copy into the writer
// skips its own 32 KiB buffer and the copy out of it. The stream
// written is the one Write produces from the same bytes.
func (cw *ChunkWriter) ReadFrom(r io.Reader) (int64, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	var total int64
	for {
		b := cw.payload.b
		n, err := r.Read(b[len(b):cw.chunkSize])
		cw.payload.b = b[:len(b)+n]
		total += int64(n)
		if len(cw.payload.b) == cw.chunkSize {
			if err := cw.flush(); err != nil {
				return total, err
			}
		}
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return total, err
		}
	}
}

// encode protects one chunk payload, starting at original byte off,
// into a container drawn from the buffer pool. It is the pipeline worker
// body, so it must be safe to call concurrently (s is the calling
// worker's private scratch).
func (cw *ChunkWriter) encode(data []byte, off int64, s *chunkScratch) (encChunk, error) {
	out := getChunkBuf(0)
	b, h, err := encodeChunk(out.b, data, off, cw.choice, s)
	if err != nil {
		putChunkBuf(out)
		return encChunk{}, err
	}
	out.b = b
	return encChunk{h: h, off: off, buf: out}, nil
}

// emit is the pipelined writer's consumer goroutine: it receives
// encoded chunks in submission order and writes them out. On the first
// error it aborts the pipe (cancelling in-flight encodes) and keeps
// draining so the producer is never stuck in Submit.
func (cw *ChunkWriter) emit() {
	defer close(cw.emitDone)
	for {
		enc, ok, err := cw.pipe.Next()
		if !ok {
			return
		}
		if cw.emitErr.Load() != nil {
			putChunkBuf(enc.buf)
			continue // draining after failure
		}
		if err == nil {
			err = cw.writeChunk(enc)
		}
		if err != nil {
			cw.emitErr.Store(err)
			cw.pipe.Abort()
		}
	}
}

// writeChunk writes one encoded chunk to w, accounts for it, and
// recycles its buffer (on failure too). It is called only by the
// goroutine that emits chunks — flush when sequential, emit when
// pipelined — so the index fields need no lock; Close reads them only
// after that goroutine is joined.
func (cw *ChunkWriter) writeChunk(enc encChunk) error {
	defer putChunkBuf(enc.buf)
	if _, err := cw.w.Write(enc.buf.b); err != nil {
		return err
	}
	cw.noteChunk(enc)
	cw.written.Add(int64(len(enc.buf.b)))
	return nil
}

// noteChunk records one just-written container in the v2 index.
func (cw *ChunkWriter) noteChunk(enc encChunk) {
	h := enc.h
	if !cw.indexed || cw.indexErr != nil {
		return
	}
	if h.OrigLen > maxIndexedChunk {
		// An index entry stores OrigLen in 32 bits; a chunk beyond that
		// cannot be indexed. Surface the failure at Close rather than
		// writing an index that lies.
		cw.indexErr = fmt.Errorf("core: chunk of %d bytes exceeds the indexable maximum (%d)", h.OrigLen, maxIndexedChunk)
		return
	}
	cw.index = append(cw.index, indexEntry{
		Off:       cw.nextOff,
		EncLen:    int64(h.EncLen),
		OrigStart: enc.off,
		OrigLen:   int64(h.OrigLen),
		HdrCRC:    crc32.ChecksumIEEE(enc.buf.b[:ContainerOverheadBytes]),
	})
	cw.nextOff += int64(len(enc.buf.b))
}

// maxIndexedChunk is the largest OrigLen an index entry can record.
const maxIndexedChunk = 1<<32 - 1

// firstErr surfaces the pipeline's first writer-side error, if any.
func (cw *ChunkWriter) firstErr() error {
	if err, _ := cw.emitErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// flush encodes and emits the buffered chunk.
func (cw *ChunkWriter) flush() error {
	if cw.payload == nil || len(cw.payload.b) == 0 {
		return nil
	}
	off := cw.flushed
	cw.flushed += int64(len(cw.payload.b))
	if cw.pipe == nil {
		enc, err := cw.encode(cw.payload.b, off, cw.seq)
		if err == nil {
			err = cw.writeChunk(enc)
		}
		if err != nil {
			cw.err = err
			return err
		}
		cw.payload.b = cw.payload.b[:0]
		return nil
	}
	if err := cw.firstErr(); err != nil {
		cw.err = err
		return err
	}
	// Hand the buffer to the pipeline (blocking while the window is
	// full) and start a fresh one from the pool; the chunk now belongs
	// to a worker, which recycles it after encoding.
	if cw.pipe.Submit(encChunk{off: off, buf: cw.payload}) != nil {
		if err := cw.firstErr(); err != nil {
			cw.err = err
			return err
		}
		cw.err = parallel.ErrPipeAborted
		return cw.err
	}
	cw.payload = getChunkBuf(cw.chunkSize)
	cw.payload.b = cw.payload.b[:0]
	return nil
}

// Close flushes the final (possibly short) chunk and, in pipelined
// mode, waits for every in-flight chunk to be encoded and emitted (or
// cancelled, on error). It never leaks goroutines, and it does not
// close the underlying writer. Close is idempotent in effect: second
// and later calls report the writer as closed.
func (cw *ChunkWriter) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.closed = true
	var err error
	if cw.err != nil {
		err = cw.err
	} else {
		err = cw.flush()
	}
	if cw.pipe != nil {
		cw.pipe.Close()
		<-cw.emitDone
		cw.pipe.Wait()
		if err == nil {
			err = cw.firstErr()
		}
	}
	putChunkBuf(cw.payload)
	cw.payload = nil
	if err == nil && cw.indexed {
		err = cw.writeFooter()
	}
	if err != nil {
		cw.err = err
		return err
	}
	cw.err = fmt.Errorf("core: chunk writer is closed")
	return nil
}

// writeFooter appends the v2 index chunk and trailer after every data
// chunk has been emitted (the emit goroutine, when any, is already
// joined, so the index slice is complete and stable).
func (cw *ChunkWriter) writeFooter() error {
	if cw.indexErr != nil {
		return cw.indexErr
	}
	foot := appendIndexFooter(nil, cw.index, cw.nextOff)
	if _, err := cw.w.Write(foot); err != nil {
		return err
	}
	cw.written.Add(int64(len(foot)))
	return nil
}

// BytesWritten returns the encoded bytes emitted so far. In pipelined
// mode chunks still in flight are not yet counted.
func (cw *ChunkWriter) BytesWritten() int64 { return cw.written.Load() }

// ChunkReader decodes a stream of containers, verifying and repairing
// each chunk as it goes.
type ChunkReader struct {
	r        io.Reader
	workers  int
	pipeline int
	cur      []byte
	curBuf   *chunkBuf // owner of cur's storage; recycled once drained
	hdr      [ContainerOverheadBytes]byte
	err      error
	closed   bool
	report   Report
	nextOrig int64         // original offset of the next chunk read off r
	seq      *chunkScratch // sequential-path scratch (pipeline == 1)

	// Pipelined state (nil/unused when pipeline == 1). The producer
	// goroutine reads encoded chunks off r sequentially and submits
	// them; decode workers verify/repair concurrently; Read drains
	// repaired chunks in order. Payload and output buffers circulate
	// through chunkBufPool.
	pipe     *parallel.Pipe[encChunk, decChunk]
	started  bool
	prodDone chan struct{}
	prodErr  error // read-side terminal error; valid once prodDone is closed
}

// encChunk is one chunk in a pooled buffer with its original start
// offset in the stream: the plaintext on its way into an encode worker,
// the whole container (header parsed into h) on its way out, the bare
// payload on its way into a decode worker. The receiver owns buf.
type encChunk struct {
	h   header
	off int64
	buf *chunkBuf
}

// decChunk is one decoded chunk plus its repair statistics. data is
// nil when decoding failed before producing output.
type decChunk struct {
	data *chunkBuf
	rep  ecc.Report
}

// Report aggregates repair statistics over all chunks read.
type Report struct {
	Chunks          int
	DetectedBlocks  int
	CorrectedBlocks int
	CorrectedBits   int
	// DigestMismatches counts chunks the ECC passed whose bytes the
	// header's digest refused (ErrDigestMismatch): how often the code
	// was wrong about the damage, or a chunk was out of place.
	DigestMismatches int
}

// NewChunkReader creates a streaming decoder over r.
func NewChunkReader(r io.Reader, workers int) *ChunkReader {
	return NewChunkReaderWith(r, workers, StreamOptions{})
}

// NewChunkReaderWith is NewChunkReader with explicit stream options
// (ChunkSize is ignored on the read side: chunks are self-describing).
func NewChunkReaderWith(r io.Reader, workers int, opts StreamOptions) *ChunkReader {
	opts = opts.normalize(workers)
	return &ChunkReader{r: r, workers: workers, pipeline: opts.Pipeline}
}

// Report returns the accumulated repair statistics.
func (cr *ChunkReader) Report() Report { return cr.report }

// Read implements io.Reader. The first error in chunk order wins:
// every chunk before it is delivered intact, and the pipeline shuts
// down without leaking goroutines.
func (cr *ChunkReader) Read(p []byte) (int, error) {
	if err := cr.fill(); err != nil {
		return 0, err
	}
	n := copy(p, cr.cur)
	cr.cur = cr.cur[n:]
	return n, nil
}

// WriteTo implements io.WriterTo: every delivered chunk goes to w in
// one Write, in Read's order and up to the error Read would return, so
// io.Copy out of the reader skips its own 32 KiB buffer and the copy
// into it.
func (cr *ChunkReader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		if err := cr.fill(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return total, err
		}
		n, err := w.Write(cr.cur)
		cr.cur = cr.cur[n:]
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
}

// fill makes cr.cur the undelivered rest of the current chunk, moving
// on to the next chunk when there is none; it returns the reader's
// terminal error once nothing is left to deliver.
func (cr *ChunkReader) fill() error {
	for len(cr.cur) == 0 {
		if cr.curBuf != nil {
			// The previous chunk is fully delivered; recycle its buffer
			// before producing the next one.
			putChunkBuf(cr.curBuf)
			cr.curBuf = nil
		}
		if cr.err != nil {
			return cr.err
		}
		if err := cr.next(); err != nil {
			cr.err = err
			cr.shutdown()
			return err
		}
	}
	return nil
}

// Close releases the reader without requiring a full drain: in-flight
// decodes are cancelled and joined. It does not close the underlying
// reader. Reads after Close fail.
func (cr *ChunkReader) Close() error {
	if cr.closed {
		return nil
	}
	cr.closed = true
	cr.cur = nil
	putChunkBuf(cr.curBuf)
	cr.curBuf = nil
	cr.shutdown()
	if cr.err == nil {
		cr.err = fmt.Errorf("core: chunk reader is closed")
	}
	return nil
}

// next produces the next decoded chunk into cr.cur.
func (cr *ChunkReader) next() error {
	if cr.pipeline <= 1 {
		return cr.nextChunk()
	}
	if !cr.started {
		cr.started = true
		cr.pipe = parallel.NewPipeWith(cr.pipeline, cr.pipeline,
			func() *chunkScratch { return new(chunkScratch) },
			cr.decode)
		cr.prodDone = make(chan struct{})
		go cr.produce()
	}
	out, ok, err := cr.pipe.Next()
	if !ok {
		<-cr.prodDone
		return cr.prodErr
	}
	return cr.deliver(out, err)
}

// deliver accounts for one decoded chunk and makes it current.
func (cr *ChunkReader) deliver(out decChunk, err error) error {
	cr.report.add(out.rep, err)
	if err != nil {
		putChunkBuf(out.data)
		return fmt.Errorf("chunk %d: %w", cr.report.Chunks, err)
	}
	cr.cur = out.data.b
	cr.curBuf = out.data
	return nil
}

// produce reads encoded chunks sequentially and feeds the decode
// pipeline until EOF, a malformed container, or an abort.
func (cr *ChunkReader) produce() {
	defer close(cr.prodDone)
	defer cr.pipe.Close()
	for {
		c, err := cr.readChunk()
		if err != nil {
			cr.prodErr = err
			return
		}
		if cr.pipe.Submit(c) != nil {
			cr.prodErr = parallel.ErrPipeAborted
			return
		}
	}
}

// decode is the decode-worker body: verify and repair one chunk into a
// pooled output buffer, consuming (and recycling) the encoded payload.
// An ecc error (e.g. uncorrectable damage) is returned alongside the
// best-effort bytes and statistics.
func (cr *ChunkReader) decode(c encChunk, s *chunkScratch) (decChunk, error) {
	out := getChunkBuf(0)
	data, rep, err := decodeChunk(out.b, c.h, c.buf.b, c.off, cr.workers, s)
	putChunkBuf(c.buf)
	if data == nil {
		putChunkBuf(out)
		return decChunk{rep: rep}, err
	}
	// data never aliases the payload buffer recycled above: built-ins
	// write into out.b (grown if need be), and a custom code's adapter
	// copies its result there.
	out.b = data
	return decChunk{data: out, rep: rep}, err
}

// readHeader reads the next chunk header of a sequential stream into
// hdr (ContainerOverheadBytes long) and parses it, consuming exactly
// the header: a version-1 one, then the rest of a version-2 one if it
// is not that. io.EOF is the clean end: the stream stopped at a chunk
// boundary, or the v2 footer began — its index payload and trailer are
// consumed, so a caller layering more reads on the same stream lands
// past the footer.
func readHeader(r io.Reader, hdr []byte) (header, error) {
	v1 := hdr[:headerLenV1*headerReplicas]
	if _, err := io.ReadFull(r, v1); err != nil {
		if err == io.EOF {
			return header{}, io.EOF
		}
		return header{}, fmt.Errorf("%w: truncated chunk header: %v", ErrContainer, err)
	}
	h, err := unmarshalHeader(v1)
	if err != nil {
		if _, err := io.ReadFull(r, hdr[len(v1):]); err != nil {
			return header{}, fmt.Errorf("%w: truncated chunk header: %v", ErrContainer, err)
		}
		if h, err = unmarshalHeader(hdr); err != nil {
			return header{}, err
		}
	}
	if h.Method == indexMethod {
		if _, err := io.CopyN(io.Discard, r, int64(h.EncLen)); err == nil {
			_, _ = io.CopyN(io.Discard, r, TrailerBytes) // best-effort: a short trailer changes nothing already delivered
		}
		return header{}, io.EOF
	}
	if h.EncLen > maxChunkPayload {
		return header{}, fmt.Errorf("%w: implausible chunk payload %d", ErrContainer, h.EncLen)
	}
	return h, nil
}

// readChunk reads one encoded container (header + payload) off the
// underlying reader into a pooled payload buffer.
func (cr *ChunkReader) readChunk() (encChunk, error) {
	h, err := readHeader(cr.r, cr.hdr[:])
	if err != nil {
		return encChunk{}, err
	}
	pb := getChunkBuf(0)
	pb.b, err = readCappedInto(cr.r, pb.b, h.EncLen)
	if err != nil {
		putChunkBuf(pb)
		return encChunk{}, fmt.Errorf("%w: truncated chunk payload: %v", ErrContainer, err)
	}
	off := cr.nextOrig
	cr.nextOrig += int64(h.OrigLen)
	return encChunk{h: h, off: off, buf: pb}, nil
}

// directReadCap is the largest chunk payload readCappedInto pre-sizes
// in a single allocation; larger claims grow geometrically as bytes
// actually arrive.
const directReadCap = 1 << 20

// readCappedInto reads exactly n bytes from r, reusing dst's storage
// when possible. Pre-sizing a fresh buffer from the header would let a
// forged (CRC-colliding) EncLen allocate up to maxChunkPayload from a
// short stream; growing as data arrives keeps the cost proportional to
// the bytes the reader really delivers. A pooled dst that already paid
// for n bytes in an earlier chunk is reused directly — that grants a
// forged length nothing new.
func readCappedInto(r io.Reader, dst []byte, n int) ([]byte, error) {
	if n <= directReadCap || cap(dst) >= n {
		buf := ecc.GrowTo(dst, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := ecc.GrowTo(dst, directReadCap)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for len(buf) < n {
		grown := make([]byte, min(len(buf)*2, n))
		copy(grown, buf)
		if _, err := io.ReadFull(r, grown[len(buf):]); err != nil {
			return nil, err
		}
		buf = grown
	}
	return buf, nil
}

// shutdown cancels and joins the pipelined machinery; safe to call on
// a sequential or never-started reader.
func (cr *ChunkReader) shutdown() {
	if cr.pipe == nil {
		return
	}
	cr.pipe.Abort()
	// Drain deliveries so a producer blocked in Submit can exit, then
	// join producer and workers. Decoded-but-undelivered chunks go back
	// to the pool.
	for {
		out, ok, _ := cr.pipe.Next()
		if !ok {
			break
		}
		putChunkBuf(out.data)
	}
	<-cr.prodDone
	cr.pipe.Wait()
	cr.pipe = nil
}

// nextChunk reads and decodes one container sequentially.
func (cr *ChunkReader) nextChunk() error {
	c, err := cr.readChunk()
	if err != nil {
		return err
	}
	if cr.seq == nil {
		cr.seq = new(chunkScratch)
	}
	return cr.deliver(cr.decode(c, cr.seq))
}

// ChunkInfo summarizes one container of a stream without decoding its
// payload.
type ChunkInfo struct {
	Config  Config
	DevSize int
	OrigLen int
	EncLen  int
}

// InspectStream walks a stream (single container or chunked), parsing
// headers and skipping payloads. It returns per-chunk metadata.
func InspectStream(r io.Reader) ([]ChunkInfo, error) {
	var infos []ChunkInfo
	hdr := make([]byte, ContainerOverheadBytes)
	for {
		h, err := readHeader(r, hdr)
		if err == io.EOF {
			return infos, nil
		}
		if err != nil {
			return infos, fmt.Errorf("after %d chunk(s): %w", len(infos), err)
		}
		if _, err := io.CopyN(io.Discard, r, int64(h.EncLen)); err != nil {
			return infos, fmt.Errorf("%w: truncated payload: %v", ErrContainer, err)
		}
		infos = append(infos, ChunkInfo{
			Config:  h.config(),
			DevSize: h.DevSize,
			OrigLen: h.OrigLen,
			EncLen:  h.EncLen,
		})
	}
}
