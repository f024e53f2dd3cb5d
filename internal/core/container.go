package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/ecc"
)

// The container wraps ECC-encoded payloads with a self-describing
// header so arc_decode needs no side-band information. The header is
// the one region the payload's ECC does not cover, so it is written
// three times and read back with byte-wise majority voting — a single
// soft error (or a short burst inside one replica) cannot take down
// the metadata that locates everything else. A version-2 header also
// carries the chunk digest; version-1 chunks decode without the check.

const (
	containerMagic   = "ARC1"
	containerVersion = 2                                 // the version written; version 1 is decode-only
	headerLen        = 4 + 1 + 1 + 4 + 4 + 8 + 8 + 4 + 4 // magic..digest, crc
	headerLenV1      = headerLen - 4                     // no digest
	headerReplicas   = 3
)

// ErrContainer reports an unusable container (bad magic, version, or
// unrecoverable header corruption).
var ErrContainer = errors.New("core: corrupt container")

// ErrDigestMismatch reports a chunk whose decoded bytes do not match
// its header's digest: damage the ECC missed or miscorrected, or a
// chunk out of its place in the stream. It wraps ecc.ErrUncorrectable.
var ErrDigestMismatch = fmt.Errorf("core: chunk digest mismatch: %w", ecc.ErrUncorrectable)

// header is the decoded container metadata.
type header struct {
	Version byte // 2 carries Digest; 1 carries none
	Method  ecc.Method
	Param   int
	DevSize int // Reed-Solomon device size (0 for other methods)
	OrigLen int
	EncLen  int
	Digest  uint32 // chunkDigest of the original bytes (version 2)
}

func (h header) config() Config { return Config{Method: h.Method, Param: h.Param} }

// size is the replicated header's length: where the payload starts.
func (h header) size() int { return replicaLen(h.Version) * headerReplicas }

// replicaLen is one header replica's length in the given version.
func replicaLen(version byte) int {
	if version == 1 {
		return headerLenV1
	}
	return headerLen
}

// chunkDigest is the version-2 chunk digest: CRC-32C over the chunk's
// original start offset in its stream (8 bytes, little-endian) and then
// its n original bytes, from crc, the CRC-32C of those bytes that the
// chunk's code returned from the pass it made over them anyway. The
// offset binds a chunk to its place, so a duplicated, reordered or
// dropped chunk fails the check too.
func chunkDigest(off int64, crc uint32, n int) uint32 {
	// crc32.Update over the offset's bytes, written out so no 8-byte
	// buffer escapes to the heap on every chunk.
	oc := ^uint32(0)
	for i := 0; i < 8; i++ {
		oc = ecc.Castagnoli[byte(oc)^byte(off>>(8*i))] ^ oc>>8
	}
	return ecc.CombineCRC(^oc, crc, n)
}

// marshalHeaderInto writes the replicated version-2 header into dst
// (which must hold ContainerOverheadBytes). The single replica builds
// on the stack, so the call allocates nothing.
func marshalHeaderInto(dst []byte, h header) {
	var one [headerLen]byte
	copy(one[:], containerMagic)
	one[4] = containerVersion
	one[5] = byte(h.Method)
	binary.LittleEndian.PutUint32(one[6:], uint32(h.Param))
	binary.LittleEndian.PutUint32(one[10:], uint32(h.DevSize))
	binary.LittleEndian.PutUint64(one[14:], uint64(h.OrigLen))
	binary.LittleEndian.PutUint64(one[22:], uint64(h.EncLen))
	binary.LittleEndian.PutUint32(one[30:], h.Digest)
	crc := crc32.ChecksumIEEE(one[:headerLen-4])
	binary.LittleEndian.PutUint32(one[headerLen-4:], crc)
	for i := 0; i < headerReplicas; i++ {
		copy(dst[i*headerLen:], one[:])
	}
}

// errHeader is a value so that the chunk walk's version-1 try at a
// version-2 header allocates nothing.
var errHeader = fmt.Errorf("%w: no version 1 or 2 header, even after voting the replicas", ErrContainer)

// unmarshalHeader recovers the header from the replicated prefix buf,
// trying each version's layout that fits in buf. For each it first
// looks for any replica that parses; failing that, it majority-votes
// each byte across replicas and retries, so even three damaged replicas
// recover when the damage does not align. The happy path allocates
// nothing (this runs once per chunk on the stream read path).
func unmarshalHeader(buf []byte) (header, error) {
	if len(buf) < headerLenV1*headerReplicas {
		return header{}, fmt.Errorf("%w: short header (%d bytes)", ErrContainer, len(buf))
	}
	for version := byte(1); version <= containerVersion; version++ {
		n := replicaLen(version)
		if len(buf) < n*headerReplicas {
			break
		}
		for i := 0; i < headerReplicas; i++ {
			if h, ok := parseOne(buf[i*n:(i+1)*n], version); ok {
				return h, nil
			}
		}
		var voted [headerLen]byte
		voteBytes(voted[:n], buf, buf[n:], buf[2*n:])
		if h, ok := parseOne(voted[:n], version); ok {
			return h, nil
		}
	}
	return header{}, errHeader
}

// vote3 returns the bitwise majority of three bytes.
func vote3(a, b, c byte) byte {
	return (a & b) | (a & c) | (b & c)
}

// parseOne parses one replica r of the given version. The version byte
// is compared first, so trying another version's layout costs no CRC.
func parseOne(r []byte, version byte) (header, bool) {
	crcAt := len(r) - 4
	if r[4] != version || crc32.ChecksumIEEE(r[:crcAt]) != binary.LittleEndian.Uint32(r[crcAt:]) ||
		string(r[:4]) != containerMagic {
		return header{}, false
	}
	h := header{
		Version: version,
		Method:  ecc.Method(r[5]),
		Param:   int(binary.LittleEndian.Uint32(r[6:])),
		DevSize: int(binary.LittleEndian.Uint32(r[10:])),
		OrigLen: int(binary.LittleEndian.Uint64(r[14:])),
		EncLen:  int(binary.LittleEndian.Uint64(r[22:])),
	}
	if version >= 2 {
		h.Digest = binary.LittleEndian.Uint32(r[30:])
	}
	return h, h.OrigLen >= 0 && h.EncLen >= 0
}

// ContainerOverheadBytes is the container's header cost in bytes (for
// the version written; a version-1 header is 12 bytes shorter).
const ContainerOverheadBytes = headerLen * headerReplicas

// chunkBuf is a pooled, grow-only byte buffer that circulates through
// the chunk stream machinery (payload accumulation, encoded
// containers, decoded chunks). Pooling the wrapper struct — not the
// slice — keeps sync.Pool round trips free of boxing allocations.
//
// Ownership is linear: whoever holds the *chunkBuf owns b exclusively
// and must either hand the whole wrapper on or putChunkBuf it; no
// slice of b may outlive the Put.
type chunkBuf struct{ b []byte }

var chunkBufPool = sync.Pool{New: func() any { return new(chunkBuf) }}

// getChunkBuf returns a pooled buffer resized to length n (contents
// unspecified).
func getChunkBuf(n int) *chunkBuf {
	cb := chunkBufPool.Get().(*chunkBuf)
	cb.b = ecc.GrowTo(cb.b, n)
	return cb
}

func putChunkBuf(cb *chunkBuf) {
	if cb != nil {
		chunkBufPool.Put(cb)
	}
}
