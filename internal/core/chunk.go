package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ecc"
)

// The chunk codec: encodeChunk and decodeChunk are the only functions
// that know how a container is built from plaintext and checked back
// into it. The one-shot API, the chunk stream, the range reader and
// (through the one-shot API) arcd all call them; the callers differ
// only in where the bytes come from and who owns the output buffer —
// pooled for ChunkWriter/ChunkReader, fresh for one-shot results and
// for range-reader chunks that live on in the cache.

// chunkScratch is what a chunk encode/decode reuses from one chunk to
// the next: the last codec it built and the ecc.Scratch arena of
// grow-only codec workspaces (RS stripes, interleave transposes). A
// chunkScratch is owned by exactly one goroutine at a time — a pipeline
// worker or sequential stream codec for its lifetime, a one-shot or
// range-reader call for its duration (through scratchPool).
type chunkScratch struct {
	memo codecMemo
	ecc  ecc.Scratch
}

// scratchPool lends scratches to callers with no per-worker state of
// their own: the one-shot API and range-reader chunk loads.
var scratchPool sync.Pool // of *chunkScratch

func getScratch() *chunkScratch {
	if s, ok := scratchPool.Get().(*chunkScratch); ok {
		return s
	}
	return new(chunkScratch)
}

// codecMemo holds the last codec a scratch resolved. Chunks of a
// homogeneous stream share one header configuration, so after the
// first chunk every lookup is a key compare; a miss is a rebuild,
// which costs well under a microsecond for every built-in but
// Reed-Solomon (its generator matrices are cached per (K, M), and its
// one per-instance table, the 4 KiB CRC shift for its device size,
// takes about a microsecond to build).
type codecMemo struct {
	key  codecKey
	code ecc.Code
}

type codecKey struct {
	cfg     Config
	devSize int
	workers int
}

func (m *codecMemo) get(cfg Config, workers, devSize int) (ecc.Code, error) {
	key := codecKey{cfg: cfg, devSize: devSize, workers: workers}
	if m.code != nil && m.key == key {
		return m.code, nil
	}
	code, err := cfg.BuildWithDeviceSize(workers, devSize)
	if err != nil {
		return nil, err
	}
	m.key, m.code = key, code
	return code, nil
}

// encodeChunk protects data — the chunk starting at original byte off
// of its stream — under choice and returns the finished container —
// replicated header plus ECC payload — built in dst's storage when its
// capacity suffices. The header comes back too, so callers that index
// chunks need not re-parse it. Byte layout depends only on (data, off,
// choice.Config), never on dst, s or choice.Threads.
func encodeChunk(dst, data []byte, off int64, choice Choice, s *chunkScratch) ([]byte, header, error) {
	devSize := choice.Config.DeviceSizeFor(len(data))
	code, err := s.memo.get(choice.Config, choice.Threads, devSize)
	if err != nil {
		return nil, header{}, err
	}
	h := header{
		Version: containerVersion,
		Method:  choice.Config.Method,
		Param:   choice.Config.Param,
		DevSize: devSize,
		OrigLen: len(data),
		EncLen:  code.EncodedSize(len(data)),
	}
	dst = ecc.GrowTo(dst, ContainerOverheadBytes+h.EncLen)
	enc, crc := code.EncodeTo(dst[ContainerOverheadBytes:], data, &s.ecc)
	if len(enc) != h.EncLen {
		// Decoders size and check everything off EncodedSize; a code that
		// disagrees with itself would write chunks they refuse.
		return nil, header{}, fmt.Errorf("core: code %s encoded %d bytes into %d, but its EncodedSize says %d",
			choice.Config, len(data), len(enc), h.EncLen)
	}
	h.Digest = chunkDigest(off, crc, len(data))
	marshalHeaderInto(dst, h)
	return dst, h, nil
}

// decodeChunk verifies and repairs one chunk: h is its parsed header,
// payload the bytes that followed it, off the original byte offset the
// reader expects it to start at. The recovered bytes land in dst's
// storage when its capacity suffices. Nothing is allocated before the
// header's geometry is checked against the payload actually in hand, so
// a forged OrigLen costs an error, not memory.
//
// Every failure wraps ErrContainer, except damage beyond the code's
// budget: that wraps ecc.ErrUncorrectable and comes with the best-effort
// bytes and a valid report. Bytes the code passes but the digest of a
// version-2 header refuses are such damage too (ErrDigestMismatch). This
// is also the one place a decoder panic — a corrupt header driving a
// constructor or codec into an internal invariant — turns into an
// error: callers asked for a verdict on untrusted bytes, not a crash.
func decodeChunk(dst []byte, h header, payload []byte, off int64, workers int, s *chunkScratch) (data []byte, rep ecc.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			data, rep, err = nil, ecc.Report{}, fmt.Errorf("%w: decoder panic: %v", ErrContainer, p)
		}
	}()
	code, err := s.memo.get(h.config(), workers, h.DevSize)
	if err != nil {
		return nil, rep, fmt.Errorf("%w: %v", ErrContainer, err)
	}
	if want := code.EncodedSize(h.OrigLen); want != h.EncLen || len(payload) != h.EncLen {
		return nil, rep, fmt.Errorf("%w: chunk payload of %d bytes (header says %d, %d original bytes need %d)",
			ErrContainer, len(payload), h.EncLen, h.OrigLen, want)
	}
	data, crc, rep, err := code.DecodeTo(ecc.GrowTo(dst, h.OrigLen), payload, h.OrigLen, &s.ecc)
	if err != nil && !errors.Is(err, ecc.ErrUncorrectable) {
		return nil, rep, fmt.Errorf("%w: %v", ErrContainer, err)
	}
	if err == nil && h.Version >= 2 && chunkDigest(off, crc, len(data)) != h.Digest {
		err = ErrDigestMismatch
	}
	return data, rep, err
}

// add folds one chunk's repair statistics and verdict into the
// aggregate.
func (r *Report) add(rep ecc.Report, err error) {
	r.Chunks++
	r.DetectedBlocks += rep.DetectedBlocks
	r.CorrectedBlocks += rep.CorrectedBlocks
	r.CorrectedBits += rep.CorrectedBits
	if errors.Is(err, ErrDigestMismatch) {
		r.DigestMismatches++
	}
}

// ChunkError is how ChunkReader and RangeReader report a chunk that
// failed to read, verify or repair: which chunk, and what went wrong.
type ChunkError struct {
	Ordinal   int   // 0-based position in the stream
	Offset    int64 // where the chunk's header starts in the encoded stream
	OrigStart int64 // the chunk held original bytes [OrigStart, OrigStart+OrigLen)
	OrigLen   int64
	Config    Config // zero when the chunk's header never parsed
	Err       error
}

func (e *ChunkError) Error() string { return fmt.Sprintf("chunk %d: %v", e.Ordinal, e.Err) }

func (e *ChunkError) Unwrap() error { return e.Err }
