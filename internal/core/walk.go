package core

import (
	"fmt"
	"io"

	"repro/internal/ecc"
)

// chunkWalk is the one reader of chunk headers: ChunkReader and
// InspectStream walk an io.Reader and read or skip each payload;
// RangeReader walks a section of an io.ReaderAt, seeking past payloads,
// to scan a stream and to find its index footer. Every walk accepts a
// chunk by one rule (docs/DECODER_HARDENING.md), so a sequential
// decode, a range read and InspectStream of the same bytes see the
// same chunks: its header parses, EncLen <= maxChunkPayload, OrigLen <=
// maxIndexedChunk (0 too: an empty chunk produces no bytes), and the
// payload fits the source, checked against its size or found by
// reading it. No walk allocates per chunk: each header goes into hdr.
type chunkWalk struct {
	r    io.Reader
	sr   *io.SectionReader // r, when the walk is over an io.ReaderAt
	off  int64             // where the next header starts
	orig int64             // where the next chunk's original bytes start
	cur  chunkAt           // the chunk next returned last

	end   endKind
	err   error  // what stopped the walk: io.EOF for endClean and endFooter
	index header // the index chunk's header, at endFooter

	hdr [ContainerOverheadBytes]byte
}

// rangeWalk walks the chunks of ra from off, reading no byte at or
// past end (none at all when off is past end).
func rangeWalk(ra io.ReaderAt, off, end int64) chunkWalk {
	sr := io.NewSectionReader(ra, off, max(end-off, 0))
	return chunkWalk{r: sr, sr: sr, off: off}
}

// chunkAt is one chunk a walk accepted: its header, and where it
// starts in the encoded stream and in the original one.
type chunkAt struct {
	h    header
	off  int64
	orig int64
}

// endKind is how a walk stopped; it stops at exactly one.
type endKind uint8

const (
	walking      endKind = iota
	endClean             // the source ended at a chunk boundary
	endFooter            // the v2 index chunk starts here
	endTruncated         // a header or payload runs past the source's end
	endCorrupt           // a header that does not parse or breaks the rule
)

// next returns the next chunk, or false once the walk has stopped. A
// stream walk's caller reads or skips the payload before calling again.
func (w *chunkWalk) next() (chunkAt, bool) {
	if w.end != walking {
		return chunkAt{}, false
	}
	v1 := w.hdr[:headerLenV1*headerReplicas]
	if _, err := io.ReadFull(w.r, v1); err != nil {
		if err == io.EOF {
			return w.stop(endClean, io.EOF)
		}
		return w.stop(endTruncated, fmt.Errorf("%w: truncated chunk header: %v", ErrContainer, err))
	}
	h, err := unmarshalHeader(v1)
	if err != nil { // not version 1: read the rest of a version-2 header
		if _, err := io.ReadFull(w.r, w.hdr[len(v1):]); err != nil {
			return w.stop(endTruncated, fmt.Errorf("%w: truncated chunk header: %v", ErrContainer, err))
		}
		if h, err = unmarshalHeader(w.hdr[:]); err != nil {
			return w.stop(endCorrupt, err)
		}
	}
	switch {
	case h.Method == indexMethod:
		w.index = h
		if w.sr == nil { // consume the footer, so reads layered on r land past it
			if _, err := io.CopyN(io.Discard, w.r, int64(h.EncLen)); err == nil {
				_, _ = io.CopyN(io.Discard, w.r, TrailerBytes) // best-effort: a short trailer changes nothing already delivered
			}
		}
		return w.stop(endFooter, io.EOF)
	case h.EncLen > maxChunkPayload || int64(h.OrigLen) > maxIndexedChunk:
		return w.stop(endCorrupt, fmt.Errorf("%w: implausible chunk: %d bytes in %d", ErrContainer, h.OrigLen, h.EncLen))
	}
	if w.sr != nil { // seek past the payload, unread, if it fits
		if pos, _ := w.sr.Seek(int64(h.EncLen), io.SeekCurrent); pos > w.sr.Size() {
			return w.stop(endTruncated, fmt.Errorf("%w: chunk payload runs past the stream", ErrContainer))
		}
	}
	w.cur = chunkAt{h: h, off: w.off, orig: w.orig}
	w.off += int64(h.size() + h.EncLen)
	w.orig += int64(h.OrigLen)
	return w.cur, true
}

// payload reads a stream walk's current payload into dst's storage.
// Past directReadCap the storage grows as bytes actually arrive
// (ecc.ReadN), so a forged (CRC-colliding) EncLen cannot allocate up
// to maxChunkPayload from a short stream. On failure dst comes back,
// its storage intact.
func (w *chunkWalk) payload(dst []byte) ([]byte, bool) {
	b, err := ecc.ReadN(w.r, dst, w.cur.h.EncLen, directReadCap)
	if !w.payloadRead(err) {
		return dst, false
	}
	return b, true
}

const directReadCap = 1 << 20

// skip discards a stream walk's current payload.
func (w *chunkWalk) skip() bool {
	_, err := io.CopyN(io.Discard, w.r, int64(w.cur.h.EncLen))
	return w.payloadRead(err)
}

// payloadRead ends the walk as truncated if reading or skipping the
// current payload failed.
func (w *chunkWalk) payloadRead(err error) bool {
	if err != nil {
		w.stop(endTruncated, fmt.Errorf("%w: truncated chunk payload: %v", ErrContainer, err))
	}
	return err == nil
}

func (w *chunkWalk) stop(end endKind, err error) (chunkAt, bool) {
	w.end, w.err = end, err
	return chunkAt{}, false
}
