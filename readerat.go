package arc

// Random access: a ReaderAt decodes only the chunks covering a
// requested byte range instead of streaming the whole archive, using
// the container v2 footer index when present (see docs/CONTAINER.md)
// and a sequential header scan otherwise — v1 streams and
// index-destroyed v2 streams keep full random access, only opening
// costs more. Decoded chunks are kept in a bounded SIEVE cache, so
// repeated reads of a hot region skip the ECC decode entirely.

import (
	"io"

	"repro/internal/core"
)

// RangeOptions tunes a ReaderAt.
type RangeOptions struct {
	// Workers bounds the per-chunk codec parallelism (<= 0 means 1).
	Workers int
	// Pipeline bounds how many chunks of a multi-chunk range are
	// loaded and repaired concurrently (<= 0 selects a default bounded
	// by the worker budget, as in StreamOptions).
	Pipeline int
}

// ReaderAt is random access over an ARC stream. It implements
// io.ReaderAt over the original (decoded, repaired) bytes and is safe
// for concurrent use. Its decoded-chunk cache holds 64 MiB.
type ReaderAt struct {
	rr *core.RangeReader
}

// OpenReaderAt opens an ARC stream of the given size for random
// access. The caller keeps ownership of src, which must stay usable
// until Close.
func OpenReaderAt(src io.ReaderAt, size int64, opts RangeOptions) (*ReaderAt, error) {
	rr, err := core.OpenRangeReader(src, size, core.RangeOptions{Workers: opts.Workers, Pipeline: opts.Pipeline})
	if err != nil {
		return nil, err
	}
	return &ReaderAt{rr: rr}, nil
}

// OpenFileReaderAt opens the ARC stream at path for random access,
// owning the file handle: Close releases it.
func OpenFileReaderAt(path string, opts RangeOptions) (*ReaderAt, error) {
	rr, err := core.OpenRangeFile(path, core.RangeOptions{Workers: opts.Workers, Pipeline: opts.Pipeline})
	if err != nil {
		return nil, err
	}
	return &ReaderAt{rr: rr}, nil
}

// ReadRange reads n original bytes starting at first into dst,
// decoding (and repairing) only the chunks that cover the range. It
// returns the bytes written — always the leading contiguous prefix —
// and the repair statistics for chunk decodes this call performed
// (cache hits were repaired when first loaded and contribute nothing).
// A range extending past the end returns what exists with io.EOF.
func (r *ReaderAt) ReadRange(dst []byte, first, n int64) (int, StreamReport, error) {
	return r.rr.ReadRange(dst, first, n)
}

// ReadAt implements io.ReaderAt over the original bytes.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return r.rr.ReadAt(p, off)
}

// Size returns the total original bytes the stream reproduces.
func (r *ReaderAt) Size() int64 { return r.rr.Size() }

// Chunks returns the number of independently addressable chunks.
func (r *ReaderAt) Chunks() int { return r.rr.Chunks() }

// Indexed reports whether the v2 footer index was found and verified;
// false means the reader fell back to the sequential header scan.
func (r *ReaderAt) Indexed() bool { return r.rr.Indexed() }

// IndexReport returns the repairs the index applied to itself through
// its own ECC while opening (zero when unindexed or undamaged).
func (r *ReaderAt) IndexReport() Report { return r.rr.IndexReport() }

// Report returns repair statistics accumulated across every chunk this
// reader has decoded.
func (r *ReaderAt) Report() StreamReport { return r.rr.Report() }

// Close releases the reader (and the file handle, when the reader owns
// one). Concurrent reads parked on in-flight chunk loads are unblocked
// with an error. Close is idempotent.
func (r *ReaderAt) Close() error { return r.rr.Close() }
