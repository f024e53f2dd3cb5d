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
// the metadata that locates everything else.

const (
	containerMagic   = "ARC1"
	containerVersion = 1
	headerLen        = 4 + 1 + 1 + 4 + 4 + 8 + 8 + 4 // magic..crc
	headerReplicas   = 3
)

// ErrContainer reports an unusable container (bad magic, version, or
// unrecoverable header corruption).
var ErrContainer = errors.New("core: corrupt container")

// header is the decoded container metadata.
type header struct {
	Method  ecc.Method
	Param   int
	DevSize int // Reed-Solomon device size (0 for other methods)
	OrigLen int
	EncLen  int
}

func (h header) config() Config { return Config{Method: h.Method, Param: h.Param} }

// marshalHeaderInto writes the replicated header prefix into dst
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
	crc := crc32.ChecksumIEEE(one[:headerLen-4])
	binary.LittleEndian.PutUint32(one[headerLen-4:], crc)
	for i := 0; i < headerReplicas; i++ {
		copy(dst[i*headerLen:], one[:])
	}
}

// unmarshalHeader recovers the header from the replicated prefix. It
// first looks for any replica with a valid CRC; failing that, it
// majority-votes each byte across replicas and retries, so even three
// damaged replicas recover when the damage does not align. The happy
// path allocates nothing (this runs once per chunk on the stream read
// path).
func unmarshalHeader(buf []byte) (header, error) {
	if len(buf) < headerLen*headerReplicas {
		return header{}, fmt.Errorf("%w: short header (%d bytes)", ErrContainer, len(buf))
	}
	for i := 0; i < headerReplicas; i++ {
		if h, err := parseOne(buf[i*headerLen : (i+1)*headerLen]); err == nil {
			return h, nil
		}
	}
	var voted [headerLen]byte
	voteBytes(voted[:], buf, buf[headerLen:], buf[2*headerLen:])
	h, err := parseOne(voted[:])
	if err != nil {
		return header{}, fmt.Errorf("%w: all header replicas damaged beyond voting", ErrContainer)
	}
	return h, nil
}

// vote3 returns the bitwise majority of three bytes.
func vote3(a, b, c byte) byte {
	return (a & b) | (a & c) | (b & c)
}

func parseOne(r []byte) (header, error) {
	want := binary.LittleEndian.Uint32(r[headerLen-4:])
	if crc32.ChecksumIEEE(r[:headerLen-4]) != want {
		return header{}, fmt.Errorf("%w: header CRC mismatch", ErrContainer)
	}
	if string(r[:4]) != containerMagic {
		return header{}, fmt.Errorf("%w: bad magic", ErrContainer)
	}
	if r[4] != containerVersion {
		return header{}, fmt.Errorf("%w: unsupported version %d", ErrContainer, r[4])
	}
	h := header{
		Method:  ecc.Method(r[5]),
		Param:   int(binary.LittleEndian.Uint32(r[6:])),
		DevSize: int(binary.LittleEndian.Uint32(r[10:])),
		OrigLen: int(binary.LittleEndian.Uint64(r[14:])),
		EncLen:  int(binary.LittleEndian.Uint64(r[22:])),
	}
	if h.OrigLen < 0 || h.EncLen < 0 {
		return header{}, fmt.Errorf("%w: negative lengths", ErrContainer)
	}
	return h, nil
}

// ContainerOverheadBytes is the fixed container cost in bytes.
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
	cb.b = growTo(cb.b, n)
	return cb
}

func putChunkBuf(cb *chunkBuf) {
	if cb != nil {
		chunkBufPool.Put(cb)
	}
}

// growTo returns b resized to length n, reusing its storage when the
// capacity suffices. Contents are unspecified.
func growTo(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}
