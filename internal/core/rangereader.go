package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/ecc"
	"repro/internal/parallel"
)

// RangeOptions tunes a RangeReader.
type RangeOptions struct {
	// Workers is the per-chunk codec parallelism (<= 0 means 1).
	Workers int
	// Pipeline bounds how many chunks of a multi-chunk range are
	// loaded and decoded concurrently (<= 0 selects the worker-budget
	// default, as in StreamOptions).
	Pipeline int
	// CacheBytes is the private decoded-chunk cache budget when Cache
	// is nil (<= 0 selects cache.DefaultBudgetBytes).
	CacheBytes int64
	// Cache, when non-nil, is a shared cache (e.g. one per arcd
	// server). The reader then never closes it, and CacheKey must be
	// unique per archive sharing it.
	Cache    *cache.Cache
	CacheKey uint64
}

// RangeReader is random access over an ARC stream: ReadRange decodes
// (and repairs) only the chunks covering a requested byte range,
// serving hot chunks from the decoded-chunk cache. It is built from
// the v2 footer index when present and intact (repairing the index
// with its own ECC if needed); otherwise — v1 streams, or v2 streams
// whose footer was destroyed — it falls back to a sequential header
// scan, which still yields full random access because chunk headers
// are self-describing. A RangeReader is safe for concurrent use.
type RangeReader struct {
	src      io.ReaderAt
	size     int64
	workers  int
	pipeline int

	entries []indexEntry
	total   int64
	indexed bool
	idxRep  ecc.Report

	cache    *cache.Cache
	ownCache bool
	ckey     uint64

	repMu  sync.Mutex // guards report and every in-flight call's accumulator
	report Report

	closed atomic.Bool
}

// OpenRangeReader opens an ARC stream of the given size for random
// access. It reads the v2 trailer and index (verifying, and if needed
// repairing, the index through its own ECC and CRC); any failure
// degrades to scanning the self-describing chunk headers, so v1
// streams and index-destroyed v2 streams open fine. The caller keeps
// ownership of src; Close releases only the reader's own resources.
func OpenRangeReader(src io.ReaderAt, size int64, opts RangeOptions) (*RangeReader, error) {
	if size < 0 {
		return nil, fmt.Errorf("core: negative stream size %d", size)
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	so := StreamOptions{Pipeline: opts.Pipeline}.normalize(opts.Workers)
	rr := &RangeReader{
		src:      src,
		size:     size,
		workers:  opts.Workers,
		pipeline: so.Pipeline,
		ckey:     opts.CacheKey,
	}
	if opts.Cache != nil {
		rr.cache = opts.Cache
	} else {
		rr.cache = cache.New(opts.CacheBytes)
		rr.ownCache = true
	}
	if err := rr.loadIndex(); err != nil {
		// The footer is missing or damaged beyond its ECC: degrade to
		// the sequential scan. Data chunks are unaffected.
		rr.entries = rr.entries[:0]
		rr.indexed = false
		rr.idxRep = ecc.Report{}
		rr.scanEntries()
	}
	if n := len(rr.entries); n > 0 {
		last := rr.entries[n-1]
		rr.total = last.OrigStart + last.OrigLen
	} else {
		rr.total = 0
	}
	return rr, nil
}

// loadIndex locates and decodes the v2 footer. Every length below is
// cross-checked against the stream size before it drives a read or an
// allocation, so a forged trailer costs a bounded read, never memory.
func (rr *RangeReader) loadIndex() error {
	minV2 := int64(TrailerBytes) + int64(ContainerOverheadBytes)
	if rr.size < minV2 {
		return fmt.Errorf("%w: stream too short for a v2 footer", ErrContainer)
	}
	var tbuf [TrailerBytes]byte
	if _, err := rr.src.ReadAt(tbuf[:], rr.size-int64(TrailerBytes)); err != nil {
		return fmt.Errorf("%w: trailer read: %v", ErrContainer, err)
	}
	indexOff, n, err := parseTrailer(tbuf[:])
	if err != nil {
		return err
	}
	payloadLen := rr.size - int64(TrailerBytes) - indexOff - int64(ContainerOverheadBytes)
	if indexOff < 0 || payloadLen < 0 {
		return fmt.Errorf("%w: trailer places the index outside the stream", ErrContainer)
	}
	var hdr [ContainerOverheadBytes]byte
	if _, err := rr.src.ReadAt(hdr[:], indexOff); err != nil {
		return fmt.Errorf("%w: index header read: %v", ErrContainer, err)
	}
	h, err := unmarshalHeader(hdr[:])
	if err != nil {
		return err
	}
	if h.Method != indexMethod {
		return fmt.Errorf("%w: trailer points at a non-index chunk", ErrContainer)
	}
	if int64(h.EncLen) != payloadLen {
		return fmt.Errorf("%w: index payload length %d disagrees with the trailer (%d)", ErrContainer, h.EncLen, payloadLen)
	}
	enc := make([]byte, payloadLen) // bounded: payloadLen < rr.size by the checks above
	if _, err := rr.src.ReadAt(enc, indexOff+int64(ContainerOverheadBytes)); err != nil {
		return fmt.Errorf("%w: index payload read: %v", ErrContainer, err)
	}
	entries, rep, err := decodeIndexPayload(h, enc, n, indexOff, rr.size)
	if err != nil {
		return err
	}
	rr.entries, rr.idxRep, rr.indexed = entries, rep, true
	return nil
}

// scanEntries builds the chunk table by walking the self-describing
// headers front to back — the v1 path, also the fallback when a v2
// footer is destroyed. The walk stops cleanly at the first header that
// does not parse (or at the index pseudo-chunk), so everything before
// the damage stays readable; scanning is best-effort by design and
// never fails the open.
func (rr *RangeReader) scanEntries() {
	var hdr [ContainerOverheadBytes]byte
	var off, orig int64
	for off+int64(ContainerOverheadBytes) <= rr.size {
		if _, err := rr.src.ReadAt(hdr[:], off); err != nil {
			return
		}
		h, err := unmarshalHeader(hdr[:])
		if err != nil || h.Method == indexMethod {
			return
		}
		encLen := int64(h.EncLen)
		if encLen < 0 || encLen > rr.size-off-int64(ContainerOverheadBytes) {
			return // truncated or forged: the chunk does not fit the stream
		}
		if h.OrigLen <= 0 || int64(h.OrigLen) > maxIndexedChunk {
			return
		}
		rr.entries = append(rr.entries, indexEntry{
			Off:       off,
			EncLen:    encLen,
			OrigStart: orig,
			OrigLen:   int64(h.OrigLen),
			HdrCRC:    headerCRC(hdr[:]),
		})
		orig += int64(h.OrigLen)
		off += int64(ContainerOverheadBytes) + encLen
	}
}

// Size returns the total original bytes the stream reproduces.
func (rr *RangeReader) Size() int64 { return rr.total }

// Chunks returns the number of addressable chunks.
func (rr *RangeReader) Chunks() int { return len(rr.entries) }

// Indexed reports whether the v2 footer index was found and verified
// (false means the reader fell back to the sequential header scan).
func (rr *RangeReader) Indexed() bool { return rr.indexed }

// IndexReport returns the repairs applied to the index itself by its
// own ECC while opening (zero when unindexed or undamaged).
func (rr *RangeReader) IndexReport() ecc.Report { return rr.idxRep }

// Report returns repair statistics accumulated across every chunk this
// reader has decoded (cache hits decode nothing and add nothing).
func (rr *RangeReader) Report() Report {
	rr.repMu.Lock()
	defer rr.repMu.Unlock()
	return rr.report
}

// Close releases the reader. A private cache is closed, which also
// unblocks concurrent ReadRange calls parked on in-flight chunk loads
// (they fail with the cache's closed error). Close is idempotent and
// does not touch src.
func (rr *RangeReader) Close() error {
	if rr.closed.Swap(true) {
		return nil
	}
	if rr.ownCache {
		_ = rr.cache.Close() // Close on a cache never fails
	}
	return nil
}

// ReadRange reads n original bytes starting at byte first into dst,
// decoding only the chunks that cover [first, first+n). It returns the
// bytes written — always the leading contiguous prefix of the range —
// plus the repair accounting for chunk decodes this call performed
// (cache hits contribute nothing: they were repaired when first
// loaded). A range extending past the stream's end returns what exists
// with io.EOF, matching io.ReaderAt conventions.
func (rr *RangeReader) ReadRange(dst []byte, first, n int64) (int, Report, error) {
	var rep Report
	if rr.closed.Load() {
		return 0, rep, fmt.Errorf("core: range reader is closed")
	}
	if first < 0 || n < 0 {
		return 0, rep, fmt.Errorf("core: negative range [%d, +%d)", first, n)
	}
	if int64(len(dst)) < n {
		return 0, rep, fmt.Errorf("core: destination holds %d bytes, range wants %d", len(dst), n)
	}
	if n == 0 {
		if first > rr.total {
			return 0, rep, io.EOF
		}
		return 0, rep, nil
	}
	if first >= rr.total {
		return 0, rep, io.EOF
	}
	end := first + n
	if end > rr.total {
		end = rr.total
	}
	lo := sort.Search(len(rr.entries), func(i int) bool {
		e := rr.entries[i]
		return e.OrigStart+e.OrigLen > first
	})
	hi := sort.Search(len(rr.entries), func(i int) bool {
		return rr.entries[i].OrigStart >= end
	})

	// Chunk loads add to rep under repMu (pipeline workers load
	// concurrently); both read paths join their workers before returning.
	var written int64
	var err error
	if hi-lo <= 1 || rr.pipeline <= 1 {
		written, err = rr.readSequential(dst, first, end, lo, hi, &rep)
	} else {
		written, err = rr.readPipelined(dst, first, end, lo, hi, &rep)
	}
	if err == nil && end < first+n {
		err = io.EOF
	}
	return int(written), rep, err
}

// ReadAt implements io.ReaderAt over the original bytes.
func (rr *RangeReader) ReadAt(p []byte, off int64) (int, error) {
	//arcvet:ignore integrityflow io.ReaderAt has no channel for the repair report; ReadRange callers who need it call it directly
	n, _, err := rr.ReadRange(p, off, int64(len(p)))
	return n, err
}

// readSequential loads the covering chunks one at a time.
func (rr *RangeReader) readSequential(dst []byte, first, end int64, lo, hi int, acc *Report) (int64, error) {
	var written int64
	for ord := lo; ord < hi; ord++ {
		data, err := rr.chunkData(ord, acc)
		if err != nil {
			return written, fmt.Errorf("chunk %d: %w", ord, err)
		}
		written += copyOverlap(dst, data, rr.entries[ord], first, end)
	}
	return written, nil
}

// readPipelined fans the covering chunks across a bounded,
// order-preserving pipe: chunk ord lo+i is the i-th delivery, so the
// copy loop below needs no reordering. The producer goroutine is
// joined through the pipe's own drain/Wait discipline on every path.
func (rr *RangeReader) readPipelined(dst []byte, first, end int64, lo, hi int, acc *Report) (int64, error) {
	workers := rr.pipeline
	if n := hi - lo; workers > n {
		workers = n
	}
	pipe := parallel.NewPipe(workers, workers, func(ord int) ([]byte, error) {
		return rr.chunkData(ord, acc)
	})
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		defer pipe.Close()
		for ord := lo; ord < hi; ord++ {
			if pipe.Submit(ord) != nil {
				return // aborted below; Submit fails once the pipe dies
			}
		}
	}()

	var written int64
	var firstErr error
	for ord := lo; ord < hi; ord++ {
		data, ok, err := pipe.Next()
		if !ok {
			break
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("chunk %d: %w", ord, err)
				pipe.Abort()
			}
			continue
		}
		if firstErr == nil {
			written += copyOverlap(dst, data, rr.entries[ord], first, end)
		}
	}
	for {
		if _, ok, _ := pipe.Next(); !ok {
			break
		}
	}
	<-prodDone
	pipe.Wait()
	return written, firstErr
}

// copyOverlap copies the intersection of chunk e's bytes with the
// requested [first, end) window into dst (which is addressed relative
// to first).
func copyOverlap(dst, data []byte, e indexEntry, first, end int64) int64 {
	srcLo := int64(0)
	if first > e.OrigStart {
		srcLo = first - e.OrigStart
	}
	srcHi := e.OrigLen
	if end < e.OrigStart+e.OrigLen {
		srcHi = end - e.OrigStart
	}
	if srcHi <= srcLo {
		return 0
	}
	return int64(copy(dst[e.OrigStart+srcLo-first:], data[srcLo:srcHi]))
}

// chunkData returns chunk ord's decoded bytes, serving repeats from
// the cache; concurrent readers of one chunk share a single load. The
// returned slice is shared and read-only.
func (rr *RangeReader) chunkData(ord int, acc *Report) ([]byte, error) {
	return rr.cache.GetOrLoad(cache.Key{Archive: rr.ckey, Chunk: int64(ord)}, func() ([]byte, error) {
		data, rep, err := rr.loadChunk(ord)
		if err == nil {
			rr.repMu.Lock()
			acc.add(rep)
			rr.report.add(rep)
			rr.repMu.Unlock()
		}
		return data, err
	})
}

// loadChunk reads, verifies, and repairs one chunk into a fresh
// (cacheable, never pooled) buffer.
func (rr *RangeReader) loadChunk(ord int) ([]byte, ecc.Report, error) {
	e := rr.entries[ord]
	buf := getChunkBuf(ContainerOverheadBytes + int(e.EncLen))
	defer putChunkBuf(buf)
	if _, err := rr.src.ReadAt(buf.b, e.Off); err != nil {
		return nil, ecc.Report{}, fmt.Errorf("%w: chunk read: %v", ErrContainer, err)
	}
	h, err := unmarshalHeader(buf.b)
	if err != nil {
		return nil, ecc.Report{}, err
	}
	// A stale or misdirected index must error, never mis-serve: the
	// chunk has to reproduce exactly the bytes the index promised
	// (decodeChunk checks the payload length against the header).
	if int64(h.OrigLen) != e.OrigLen {
		return nil, ecc.Report{}, fmt.Errorf("%w: chunk header disagrees with the index", ErrContainer)
	}
	s := getScratch()
	defer scratchPool.Put(s)
	data, rep, err := decodeChunk(nil, h, buf.b[ContainerOverheadBytes:], rr.workers, s)
	if err != nil {
		return nil, rep, err // uncorrectable chunks are never cached or served
	}
	return data, rep, nil
}
