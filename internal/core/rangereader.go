package core

import (
	"fmt"
	"io"
	"os"
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
	// Cache, when non-nil, is a shared cache (e.g. one per arcd
	// server). The reader then never closes it, and CacheKey must be
	// unique per archive sharing it. When nil, the reader keeps a
	// private cache of cache.DefaultBudgetBytes.
	Cache    *cache.Cache
	CacheKey uint64
}

// RangeReader is random access over an ARC stream: ReadRange decodes
// (and repairs) only the chunks covering a requested byte range,
// serving hot chunks from the decoded-chunk cache. It is built from
// the v2 footer index when present and intact (repairing the index
// with its own ECC if needed); otherwise — v1 streams, or v2 streams
// whose footer was destroyed — from the chunk walk (walk.go) over its
// headers, the same walk a sequential reader makes, which still yields
// full random access because chunk headers are self-describing. A
// RangeReader is safe for concurrent use.
type RangeReader struct {
	src      io.ReaderAt
	file     *os.File // owned when opened by OpenRangeFile
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
		rr.cache = cache.New(0)
		rr.ownCache = true
	}
	if rr.loadIndex() != nil {
		// The footer is missing or damaged beyond its ECC: degrade to
		// the sequential scan. Data chunks are unaffected.
		rr.scanEntries()
	}
	if n := len(rr.entries); n > 0 {
		rr.total = rr.entries[n-1].OrigStart + rr.entries[n-1].OrigLen
	}
	return rr, nil
}

// OpenRangeFile opens the ARC stream in the file at path for random
// access. The reader owns the file handle: Close releases it.
func OpenRangeFile(path string, opts RangeOptions) (*RangeReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil {
		var rr *RangeReader
		if rr, err = OpenRangeReader(f, fi.Size(), opts); err == nil {
			rr.file = f
			return rr, nil
		}
	}
	_ = f.Close() // error path: the stat or open error wins
	return nil, err
}

// loadIndex locates and decodes the v2 footer. Every length below is
// cross-checked against the stream size before it drives a read or an
// allocation, so a forged trailer costs a bounded read, never memory.
func (rr *RangeReader) loadIndex() error {
	if rr.size < TrailerBytes {
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
	w := rangeWalk(rr.src, indexOff, rr.size-int64(TrailerBytes))
	if _, ok := w.next(); ok || w.end != endFooter {
		return fmt.Errorf("%w: the trailer's index offset holds no index chunk (%v)", ErrContainer, w.err)
	}
	h := w.index
	payloadLen := rr.size - int64(TrailerBytes) - indexOff - int64(h.size())
	if int64(h.EncLen) != payloadLen {
		return fmt.Errorf("%w: index payload length %d disagrees with the trailer (%d)", ErrContainer, h.EncLen, payloadLen)
	}
	enc := make([]byte, payloadLen) // bounded: payloadLen < rr.size by the checks above
	if _, err := rr.src.ReadAt(enc, indexOff+int64(h.size())); err != nil {
		return fmt.Errorf("%w: index payload read: %v", ErrContainer, err)
	}
	entries, rep, err := decodeIndexPayload(h, enc, n, indexOff)
	if err != nil {
		return err
	}
	rr.entries, rr.idxRep, rr.indexed = entries, rep, true
	return nil
}

// scanEntries builds the chunk table by walking the self-describing
// headers front to back — the v1 path, also the fallback when a v2
// footer is destroyed. The walk reads headers only and stops at its
// first end, so everything before damage stays readable; scanning is
// best-effort by design and never fails the open. An empty chunk gets
// no entry: it holds no byte to look up. It still counts in the
// ordinals, so a chunk is named by the number ChunkReader gives it.
func (rr *RangeReader) scanEntries() {
	w := rangeWalk(rr.src, 0, rr.size)
	ord := 0
	for c, ok := w.next(); ok; c, ok = w.next() {
		if c.h.OrigLen > 0 {
			rr.entries = append(rr.entries, indexEntry{Off: c.off, EncLen: int64(c.h.EncLen),
				OrigStart: c.orig, OrigLen: int64(c.h.OrigLen), hdrLen: int64(c.h.size()), ord: ord})
		}
		ord++
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
// (they fail with the cache's closed error). Close is idempotent; it
// closes the file OpenRangeFile opened and no other src.
func (rr *RangeReader) Close() error {
	if rr.closed.Swap(true) {
		return nil
	}
	if rr.ownCache {
		_ = rr.cache.Close() // Close on a cache never fails
	}
	if rr.file != nil {
		return rr.file.Close()
	}
	return nil
}

// ReadRange reads n original bytes starting at byte first into dst,
// decoding only the chunks that cover [first, first+n). It returns the
// bytes written — always the leading contiguous prefix of the range —
// plus the repair accounting for chunk decodes this call performed,
// failed ones included (cache hits contribute nothing: they were
// repaired when first loaded). A range extending past the stream's end
// returns what exists with io.EOF, matching io.ReaderAt conventions.
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
	end := min(first+n, rr.total)
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
	//arcvet:ignore integrityflow the verdict, digest-checked in decodeChunk, is the error; io.ReaderAt has no channel for the repair statistics, which ReadRange returns
	n, _, err := rr.ReadRange(p, off, int64(len(p)))
	return n, err
}

// readSequential loads the covering chunks one at a time.
func (rr *RangeReader) readSequential(dst []byte, first, end int64, lo, hi int, acc *Report) (int64, error) {
	var written int64
	for ord := lo; ord < hi; ord++ {
		data, err := rr.chunkData(ord, acc)
		if err != nil {
			return written, err
		}
		written += copyOverlap(dst, data, rr.entries[ord], first, end)
	}
	return written, nil
}

// readPipelined fans the covering chunks across a bounded,
// order-preserving pipe: chunk ord lo+i is the i-th delivery, so the
// copy loop below needs no reordering. The deferred Stop cancels what
// is left after an error and joins the producer and the workers on
// every path.
func (rr *RangeReader) readPipelined(dst []byte, first, end int64, lo, hi int, acc *Report) (int64, error) {
	workers := rr.pipeline
	if n := hi - lo; workers > n {
		workers = n
	}
	pipe := parallel.NewPipe(workers, workers, func(ord int) ([]byte, error) {
		return rr.chunkData(ord, acc)
	})
	defer pipe.Stop(nil) // the producer's only error is a refused Submit
	pipe.Go(func() error {
		defer pipe.Close()
		for ord := lo; ord < hi; ord++ {
			if err := pipe.Submit(ord); err != nil {
				return err
			}
		}
		return nil
	})

	var written int64
	for ord := lo; ord < hi; ord++ {
		data, _, err := pipe.Next()
		if err != nil {
			return written, err
		}
		written += copyOverlap(dst, data, rr.entries[ord], first, end)
	}
	return written, nil
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
		rr.repMu.Lock()
		acc.add(rep, err)
		rr.report.add(rep, err)
		rr.repMu.Unlock()
		return data, err
	})
}

// loadChunk reads, verifies, and repairs one chunk into a fresh
// (cacheable, never pooled) buffer. Its every error is a *ChunkError.
func (rr *RangeReader) loadChunk(ord int) (_ []byte, _ ecc.Report, err error) {
	e := rr.entries[ord]
	var h header
	defer func() {
		if err != nil {
			err = &ChunkError{Ordinal: e.ord, Offset: e.Off, OrigStart: e.OrigStart, OrigLen: e.OrigLen, Config: h.config(), Err: err}
		}
	}()
	buf := getChunkBuf(int(e.hdrLen + e.EncLen))
	defer putChunkBuf(buf)
	if _, err := rr.src.ReadAt(buf.b, e.Off); err != nil {
		return nil, ecc.Report{}, fmt.Errorf("%w: chunk read: %v", ErrContainer, err)
	}
	if h, err = unmarshalHeader(buf.b); err != nil {
		return nil, ecc.Report{}, err
	}
	// A stale or misdirected index must error, never mis-serve: the
	// chunk has to reproduce exactly the bytes the index promised
	// (decodeChunk checks the payload length against the header, and a
	// version-2 digest the offset).
	if int64(h.OrigLen) != e.OrigLen || int64(h.size()) != e.hdrLen {
		return nil, ecc.Report{}, fmt.Errorf("%w: chunk header disagrees with the index", ErrContainer)
	}
	s := getScratch()
	defer scratchPool.Put(s)
	data, rep, err := decodeChunk(nil, h, buf.b[e.hdrLen:], e.OrigStart, rr.workers, s)
	if err != nil {
		return nil, rep, err // uncorrectable chunks are never cached or served
	}
	return data, rep, nil
}
