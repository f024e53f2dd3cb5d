// Package service implements arcd, the ARC archive service: a
// concurrent TCP daemon that encodes, decodes, verifies, and repairs
// ARC containers for many clients over a small length-prefixed framed
// protocol, plus the client and workload-generation sides used by
// cmd/arcload and the fault-injection-under-load test suite.
//
// See docs/SERVICE.md for the frame format, the backpressure and
// worker-budget model, and the shutdown semantics.
package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/ecc"
)

// Frame layout (all integers big-endian):
//
//	offset size field
//	0      2    magic 0x41 0xF7
//	2      1    version (1)
//	3      1    op
//	4      1    status (0 in requests)
//	5      3    reserved, must be zero
//	8      4    payload length
//	12     n    payload
//
// The frame header carries no checksum on purpose: TCP already
// guards the wire, and the payloads that matter — ARC containers —
// carry their own voted, CRC-guarded headers and ECC. The framing's
// job is delimitation and dispatch, not integrity.
const (
	frameMagic0 = 0x41
	frameMagic1 = 0xF7
	frameVer    = 1

	// FrameHeaderLen is the fixed frame header size in bytes.
	FrameHeaderLen = 12

	// DefaultMaxPayload bounds a frame payload unless the server or
	// client is configured otherwise.
	DefaultMaxPayload = 32 << 20
)

// Op identifies a request (and its response: responses echo the op).
type Op uint8

// The six operations of the protocol.
const (
	OpEncode Op = 1 + iota
	OpDecode
	OpVerify
	OpRepair
	OpStats
	OpReadRange
	opMax = OpReadRange
)

var opNames = [...]string{"invalid", "encode", "decode", "verify", "repair", "stats", "read-range"}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// OpNames lists the operation names in op order, for metrics labels
// (index 0 is the out-of-range slot).
func OpNames() []string { return append([]string(nil), opNames[1:]...) }

// Status classifies a response. Requests always carry StatusRequest.
type Status uint8

// Response statuses.
const (
	StatusRequest Status = iota // a request frame
	StatusOK
	// StatusUncorrectable: damage was detected beyond the ECC budget.
	// The payload is a human-readable report — never partial data, so
	// over-budget corruption is loud, not silent.
	StatusUncorrectable
	// StatusBadRequest: the payload was not a parseable container or
	// carried an invalid configuration.
	StatusBadRequest
	// StatusOversized: the request payload exceeded the server's
	// frame budget. The connection closes after this response.
	StatusOversized
	// StatusInternal: the server failed for reasons not attributable
	// to the request.
	StatusInternal
	statusMax = StatusInternal
)

var statusNames = [...]string{"request", "ok", "uncorrectable", "bad-request", "oversized", "internal"}

// String implements fmt.Stringer.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Frame is one protocol frame.
type Frame struct {
	Op      Op
	Status  Status
	Payload []byte
}

// Framing errors. ReadFrame wraps each in enough context to log;
// test with errors.Is.
var (
	ErrBadFrame      = errors.New("service: malformed frame")
	ErrFrameTooLarge = errors.New("service: frame payload exceeds limit")
)

// AppendFrame appends f's wire encoding to dst and returns the
// extended slice. It never fails: lengths above MaxUint32 cannot be
// constructed through the exported API (ReadFrame would refuse them
// anyway).
func AppendFrame(dst []byte, f Frame) []byte {
	dst = appendFrameHeader(dst, f.Op, f.Status, len(f.Payload))
	return append(dst, f.Payload...)
}

// appendFrameHeader appends the 12-byte header of a frame whose
// payload is n bytes long.
func appendFrameHeader(dst []byte, op Op, status Status, n int) []byte {
	var h [FrameHeaderLen]byte
	h[0], h[1], h[2] = frameMagic0, frameMagic1, frameVer
	h[3] = byte(op)
	h[4] = byte(status)
	binary.BigEndian.PutUint32(h[8:], uint32(n))
	return append(dst, h[:]...)
}

// WriteFrame writes one frame to w as one net.Buffers: a single writev
// on a TCP connection, sequential writes on other writers.
func WriteFrame(w io.Writer, f Frame) error {
	var fw frameWriter
	return fw.write(w, f.Op, f.Status, nil, f.Payload)
}

// frameWriter writes frames whose payload is a short head followed by
// a body, without joining the two: the frame header and head are
// copied into hdr, and hdr plus body go out as one net.Buffers. Its
// buffers are reused from frame to frame, so one writer per connection
// writes allocation-free.
type frameWriter struct {
	hdr []byte
	vec [2][]byte
	// bufs is a field, not a local, because WriteTo's pointer receiver
	// would move a local to the heap on every frame.
	bufs net.Buffers
}

// write sends one frame whose payload is head followed by body.
func (fw *frameWriter) write(w io.Writer, op Op, status Status, head, body []byte) error {
	fw.hdr = appendFrameHeader(fw.hdr[:0], op, status, len(head)+len(body))
	fw.hdr = append(fw.hdr, head...)
	fw.vec = [2][]byte{fw.hdr, body}
	fw.bufs = fw.vec[:1]
	if len(body) > 0 {
		fw.bufs = fw.vec[:2]
	}
	_, err := fw.bufs.WriteTo(w)
	fw.vec[1] = nil // hold no reference to body past the write
	return err
}

// directPayloadCap is the largest payload ReadFrame allocates up
// front. Larger payloads grow geometrically as bytes actually arrive,
// so a forged length prefix costs an attacker bandwidth, not server
// memory — the wire-side extension of the decoder-hardening contract
// (docs/DECODER_HARDENING.md).
const directPayloadCap = 64 << 10

// ReadFrame reads one frame from r. limit bounds the accepted payload
// length (<= 0 selects DefaultMaxPayload); longer frames fail with
// ErrFrameTooLarge before any payload allocation. scratch, when
// non-nil, is reused as the payload buffer if it has capacity — the
// returned Frame aliases it. A truncated header or payload fails with
// io.EOF or io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, limit int, scratch []byte) (Frame, error) {
	f, n, err := readFrameHeader(r, limit)
	if err != nil || n == 0 {
		return f, err
	}
	buf, err := readPayload(r, scratch, n)
	if err != nil {
		return Frame{}, err
	}
	f.Payload = buf
	return f, nil
}

// readFrameHeader reads and validates one frame header, returning the
// frame's op and status and its payload length, which the caller reads
// next. On ErrFrameTooLarge the op and status still come back.
func readFrameHeader(r io.Reader, limit int) (Frame, int, error) {
	if limit <= 0 {
		limit = DefaultMaxPayload
	}
	var h [FrameHeaderLen]byte
	// ReadFull keeps a clean EOF between frames as io.EOF and turns a
	// partial header into io.ErrUnexpectedEOF.
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return Frame{}, 0, err
	}
	if h[0] != frameMagic0 || h[1] != frameMagic1 {
		return Frame{}, 0, fmt.Errorf("%w: bad magic %#02x%02x", ErrBadFrame, h[0], h[1])
	}
	if h[2] != frameVer {
		return Frame{}, 0, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, h[2])
	}
	op, status := Op(h[3]), Status(h[4])
	if op < OpEncode || op > opMax {
		return Frame{}, 0, fmt.Errorf("%w: unknown op %d", ErrBadFrame, h[3])
	}
	if status > statusMax {
		return Frame{}, 0, fmt.Errorf("%w: unknown status %d", ErrBadFrame, h[4])
	}
	if h[5] != 0 || h[6] != 0 || h[7] != 0 {
		return Frame{}, 0, fmt.Errorf("%w: nonzero reserved bytes", ErrBadFrame)
	}
	n64 := binary.BigEndian.Uint32(h[8:])
	if int64(n64) > int64(limit) {
		// The op and status still come back with the error so a server
		// can address its refusal to the right request.
		return Frame{Op: op, Status: status}, 0, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n64, limit)
	}
	return Frame{Op: op, Status: status}, int(n64), nil
}

// readPayload reads exactly n bytes, reusing dst's storage when it
// suffices and otherwise growing geometrically from directPayloadCap
// as data arrives (see directPayloadCap).
func readPayload(r io.Reader, dst []byte, n int) ([]byte, error) {
	if n <= directPayloadCap || cap(dst) >= n {
		buf := ecc.GrowTo(dst, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fullErr(err)
		}
		return buf, nil
	}
	buf := ecc.GrowTo(dst, directPayloadCap)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fullErr(err)
	}
	for len(buf) < n {
		grown := make([]byte, min(len(buf)*2, n))
		copy(grown, buf)
		if _, err := io.ReadFull(r, grown[len(buf):]); err != nil {
			return nil, fullErr(err)
		}
		buf = grown
	}
	return buf, nil
}

// fullErr normalizes a short payload read to io.ErrUnexpectedEOF: a
// clean EOF mid-payload is still a truncated frame.
func fullErr(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Encode requests prefix the data with the requested configuration:
//
//	offset size field
//	0      1    ecc method (0 = server default)
//	1      2    method parameter
//	3      n    data to protect
const encodeReqHeaderLen = 3

// AppendEncodeRequest appends an OpEncode request payload: the
// method/param prefix followed by data. Method 0 asks the server to
// use its configured default.
func AppendEncodeRequest(dst []byte, method ecc.Method, param int, data []byte) []byte {
	h := encodeRequestHeader(method, param)
	dst = append(dst, h[:]...)
	return append(dst, data...)
}

// encodeRequestHeader is the method/param prefix of an OpEncode payload.
func encodeRequestHeader(method ecc.Method, param int) [encodeReqHeaderLen]byte {
	var h [encodeReqHeaderLen]byte
	h[0] = byte(method)
	binary.BigEndian.PutUint16(h[1:], uint16(param))
	return h
}

// ParseEncodeRequest splits an OpEncode payload. The returned data
// aliases payload.
func ParseEncodeRequest(payload []byte) (method ecc.Method, param int, data []byte, err error) {
	if len(payload) < encodeReqHeaderLen {
		return 0, 0, nil, fmt.Errorf("%w: encode request shorter than its header", ErrBadFrame)
	}
	return ecc.Method(payload[0]), int(binary.BigEndian.Uint16(payload[1:])), payload[encodeReqHeaderLen:], nil
}

// Read-range requests name an archive in the server's root and an
// original-byte window to decode:
//
//	offset size field
//	0      8    first original byte (big-endian)
//	8      8    byte count
//	16     n    archive name (bare file name, no separators)
const rangeReqHeaderLen = 16

// AppendReadRangeRequest appends an OpReadRange request payload. The
// response carries a Report followed by the decoded bytes — possibly
// fewer than n when the range extends past the archive's end.
func AppendReadRangeRequest(dst []byte, name string, first, n int64) []byte {
	var h [rangeReqHeaderLen]byte
	binary.BigEndian.PutUint64(h[0:], uint64(first))
	binary.BigEndian.PutUint64(h[8:], uint64(n))
	dst = append(dst, h[:]...)
	return append(dst, name...)
}

// ParseReadRangeRequest splits an OpReadRange payload.
func ParseReadRangeRequest(payload []byte) (name string, first, n int64, err error) {
	if len(payload) < rangeReqHeaderLen {
		return "", 0, 0, fmt.Errorf("%w: read-range request shorter than its header", ErrBadFrame)
	}
	first = int64(binary.BigEndian.Uint64(payload[0:]))
	n = int64(binary.BigEndian.Uint64(payload[8:]))
	if first < 0 || n < 0 {
		return "", 0, 0, fmt.Errorf("%w: negative read-range window", ErrBadFrame)
	}
	name = string(payload[rangeReqHeaderLen:])
	if name == "" {
		return "", 0, 0, fmt.Errorf("%w: read-range request names no archive", ErrBadFrame)
	}
	return name, first, n, nil
}

// Report is the repair accounting a DECODE, VERIFY, REPAIR, or
// READ_RANGE response carries ahead of its data: how much damage the
// container showed and how much was corrected.
type Report struct {
	DetectedBlocks  int
	CorrectedBits   int
	CorrectedBlocks int
}

// reportLen is the wire size of a Report.
const reportLen = 12

// AppendReport appends r's wire encoding.
func AppendReport(dst []byte, r Report) []byte {
	var b [reportLen]byte
	binary.BigEndian.PutUint32(b[0:], uint32(r.DetectedBlocks))
	binary.BigEndian.PutUint32(b[4:], uint32(r.CorrectedBits))
	binary.BigEndian.PutUint32(b[8:], uint32(r.CorrectedBlocks))
	return append(dst, b[:]...)
}

// ParseReport splits a response payload into its leading Report and
// the remaining data (which aliases payload).
func ParseReport(payload []byte) (Report, []byte, error) {
	if len(payload) < reportLen {
		return Report{}, nil, fmt.Errorf("%w: response shorter than its report", ErrBadFrame)
	}
	r := Report{
		DetectedBlocks:  int(binary.BigEndian.Uint32(payload[0:])),
		CorrectedBits:   int(binary.BigEndian.Uint32(payload[4:])),
		CorrectedBlocks: int(binary.BigEndian.Uint32(payload[8:])),
	}
	return r, payload[reportLen:], nil
}
