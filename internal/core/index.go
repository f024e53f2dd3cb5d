package core

// Container format v2: a chunk stream followed by a footer index and a
// fixed-size trailer (a stream format version; chunk headers carry
// their own). The index maps element (byte) ranges to chunk locations
// so a reader can decode just the chunks covering a requested range; it
// is wrapped in the same self-describing container header as a data
// chunk (with a reserved pseudo-method byte) and its payload is
// protected by its own SEC-DED code plus a CRC over the raw entries —
// the index is as resilient as the data it points to. The trailer is
// written three times with per-replica CRCs and read back with
// byte-wise majority voting, mirroring the chunk header's defense. v1
// streams carry neither and remain fully readable; a v2 stream whose
// entire footer is destroyed degrades to the sequential scan path (see
// rangereader.go).
//
//	[chunk 0][chunk 1]...[chunk n-1][index chunk][trailer x3]
//
// Index chunk: a standard replicated container header with Method =
// indexMethod, OrigLen = len(entries)*indexEntrySize + 4 (the raw
// entries plus their CRC32), EncLen = the SEC-DED(64) encoding of that,
// Param = the entry count, and Digest unused (0). Its header version is
// the data chunks' version: one writer writes a whole stream.
// Sequential readers recognize the method byte, consume the footer, and
// report a clean EOF, so `arc decode` of a v2 stream yields exactly the
// v1 bytes.
//
// Trailer replica layout (24 bytes, little-endian):
//
//	offset size field
//	0      4    magic "ARCX"
//	4      1    container format version (2)
//	5      3    reserved, zero
//	8      8    index chunk offset from stream start
//	16     4    entry count
//	20     4    CRC32 (IEEE) of bytes [0,20)
import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
)

const (
	// indexMethod is the reserved pseudo-method byte marking the index
	// chunk. It is far outside the real ecc.Method range, so a data
	// chunk can never alias it.
	indexMethod ecc.Method = 0x49 // 'I'

	// indexEntrySize is the wire size of one index entry.
	indexEntrySize = 32

	trailerMagic     = "ARCX"
	trailerVersion   = 2
	trailerRecordLen = 24
	trailerReplicas  = 3

	// TrailerBytes is the fixed v2 trailer size: three replicated,
	// CRC-guarded records.
	TrailerBytes = trailerRecordLen * trailerReplicas
)

// indexEntry locates one chunk: where its container starts in the
// stream, how long its encoded payload is, and which original byte
// range it reproduces. HdrCRC, a CRC of the chunk's replicated header
// region, is written but no reader checks it. What catches a stale or
// misdirected index is loadChunk: the header it reads must promise the
// entry's OrigLen and header length, and a version-2 chunk's digest
// covers the original offset the entry maps it to.
type indexEntry struct {
	Off       int64  // container offset from stream start
	EncLen    int64  // encoded payload length (container is hdrLen + EncLen)
	OrigStart int64  // cumulative original-byte offset of this chunk
	OrigLen   int64  // original bytes this chunk reproduces
	HdrCRC    uint32 // CRC32 (IEEE) of the container's replicated header
	hdrLen    int64  // replicated header bytes for the chunk's version (not stored)
	ord       int    // the chunk's 0-based position in the stream, empty chunks counted (not stored)
}

// indexCode returns the SEC-DED(64) code protecting index payloads,
// built once — codes are stateless and safe for concurrent use.
var indexCode = sync.OnceValue(func() ecc.Code { return hamming.NewSECDED(64, 1) })

// appendIndexFooter appends the complete v2 footer — index chunk plus
// replicated trailer — for the given entries (streamLen is the byte
// length of the chunk stream the footer follows, i.e. the index
// chunk's offset).
func appendIndexFooter(dst []byte, entries []indexEntry, streamLen int64) []byte {
	raw := make([]byte, len(entries)*indexEntrySize+4)
	for i, e := range entries {
		p := raw[i*indexEntrySize:]
		binary.LittleEndian.PutUint64(p[0:], uint64(e.Off))
		binary.LittleEndian.PutUint64(p[8:], uint64(e.EncLen))
		binary.LittleEndian.PutUint64(p[16:], uint64(e.OrigStart))
		binary.LittleEndian.PutUint32(p[24:], uint32(e.OrigLen))
		binary.LittleEndian.PutUint32(p[28:], e.HdrCRC)
	}
	crc := crc32.ChecksumIEEE(raw[:len(raw)-4])
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc)

	enc, _ := indexCode().EncodeTo(nil, raw, nil)
	h := header{
		Method:  indexMethod,
		Param:   len(entries),
		DevSize: 0,
		OrigLen: len(raw),
		EncLen:  len(enc),
	}
	hdr := make([]byte, ContainerOverheadBytes)
	marshalHeaderInto(hdr, h)
	dst = append(dst, hdr...)
	dst = append(dst, enc...)
	return appendTrailer(dst, streamLen, len(entries))
}

// appendTrailer appends the three CRC-guarded trailer replicas.
func appendTrailer(dst []byte, indexOff int64, entries int) []byte {
	var one [trailerRecordLen]byte
	copy(one[:], trailerMagic)
	one[4] = trailerVersion
	binary.LittleEndian.PutUint64(one[8:], uint64(indexOff))
	binary.LittleEndian.PutUint32(one[16:], uint32(entries))
	crc := crc32.ChecksumIEEE(one[:trailerRecordLen-4])
	binary.LittleEndian.PutUint32(one[trailerRecordLen-4:], crc)
	for i := 0; i < trailerReplicas; i++ {
		dst = append(dst, one[:]...)
	}
	return dst
}

// parseTrailer recovers (indexOff, entryCount) from the trailing
// TrailerBytes of a stream. Like the chunk header, it first accepts
// any replica with a valid CRC and then falls back to byte-wise
// majority voting across the three.
func parseTrailer(buf []byte) (indexOff int64, entries int, err error) {
	if len(buf) < TrailerBytes {
		return 0, 0, fmt.Errorf("%w: short trailer (%d bytes)", ErrContainer, len(buf))
	}
	buf = buf[len(buf)-TrailerBytes:]
	for i := 0; i < trailerReplicas; i++ {
		if off, n, err := parseTrailerRecord(buf[i*trailerRecordLen : (i+1)*trailerRecordLen]); err == nil {
			return off, n, nil
		}
	}
	var voted [trailerRecordLen]byte
	voteBytes(voted[:], buf, buf[trailerRecordLen:], buf[2*trailerRecordLen:])
	off, n, verr := parseTrailerRecord(voted[:])
	if verr != nil {
		return 0, 0, fmt.Errorf("%w: all trailer replicas damaged beyond voting", ErrContainer)
	}
	return off, n, nil
}

func parseTrailerRecord(r []byte) (int64, int, error) {
	want := binary.LittleEndian.Uint32(r[trailerRecordLen-4:])
	if crc32.ChecksumIEEE(r[:trailerRecordLen-4]) != want {
		return 0, 0, fmt.Errorf("%w: trailer CRC mismatch", ErrContainer)
	}
	if string(r[:4]) != trailerMagic {
		return 0, 0, fmt.Errorf("%w: bad trailer magic", ErrContainer)
	}
	if r[4] != trailerVersion {
		return 0, 0, fmt.Errorf("%w: unsupported container version %d", ErrContainer, r[4])
	}
	if r[5] != 0 || r[6] != 0 || r[7] != 0 {
		return 0, 0, fmt.Errorf("%w: nonzero reserved trailer bytes", ErrContainer)
	}
	off := int64(binary.LittleEndian.Uint64(r[8:]))
	n := int(binary.LittleEndian.Uint32(r[16:]))
	if off < 0 || n < 0 {
		return 0, 0, fmt.Errorf("%w: negative trailer fields", ErrContainer)
	}
	return off, n, nil
}

// decodeIndexPayload verifies and repairs an index chunk's encoded
// payload and parses its entries. h is the (already voted) index chunk
// header, entries the trailer's entry count, and indexOff where the
// index chunk starts — every allocation and bound below is
// cross-checked against those before it is trusted. The returned
// ecc.Report counts the index's own repairs.
func decodeIndexPayload(h header, enc []byte, entries int, indexOff int64) ([]indexEntry, ecc.Report, error) {
	var zero ecc.Report
	rawLen := entries*indexEntrySize + 4
	if h.OrigLen != rawLen {
		return nil, zero, fmt.Errorf("%w: index length %d disagrees with trailer entry count %d", ErrContainer, h.OrigLen, entries)
	}
	code := indexCode()
	if h.EncLen != code.EncodedSize(rawLen) || h.EncLen != len(enc) {
		return nil, zero, fmt.Errorf("%w: index payload length %d (want %d)", ErrContainer, len(enc), code.EncodedSize(rawLen))
	}
	raw, _, rep, err := code.DecodeTo(nil, enc, rawLen, nil)
	if err != nil {
		return nil, rep, fmt.Errorf("%w: index beyond ECC budget: %v", ErrContainer, err)
	}
	want := binary.LittleEndian.Uint32(raw[rawLen-4:])
	if crc32.ChecksumIEEE(raw[:rawLen-4]) != want {
		return nil, rep, fmt.Errorf("%w: index CRC mismatch after repair", ErrContainer)
	}
	hdrLen := int64(h.size())
	out := make([]indexEntry, entries)
	var nextOff, nextOrig int64
	for i := range out {
		p := raw[i*indexEntrySize:]
		e := indexEntry{
			Off:       int64(binary.LittleEndian.Uint64(p[0:])),
			EncLen:    int64(binary.LittleEndian.Uint64(p[8:])),
			OrigStart: int64(binary.LittleEndian.Uint64(p[16:])),
			OrigLen:   int64(binary.LittleEndian.Uint32(p[24:])),
			HdrCRC:    binary.LittleEndian.Uint32(p[28:]),
			hdrLen:    hdrLen,
			ord:       i, // an indexed stream holds no empty chunk
		}
		// The chunk walk's rule (OrigLen fits by its width), less the
		// empty chunk: an index never records one.
		if e.Off != nextOff || e.OrigStart != nextOrig || e.EncLen < 0 || e.EncLen > maxChunkPayload || e.OrigLen == 0 {
			return nil, rep, fmt.Errorf("%w: index entry %d is inconsistent", ErrContainer, i)
		}
		if e.Off+hdrLen+e.EncLen > indexOff {
			return nil, rep, fmt.Errorf("%w: index entry %d exceeds the stream", ErrContainer, i)
		}
		nextOff = e.Off + hdrLen + e.EncLen
		nextOrig = e.OrigStart + e.OrigLen
		out[i] = e
	}
	if nextOff != indexOff {
		return nil, rep, fmt.Errorf("%w: index covers %d stream bytes, expected %d", ErrContainer, nextOff, indexOff)
	}
	return out, rep, nil
}
