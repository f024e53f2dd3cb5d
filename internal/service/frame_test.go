package service

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/ecc"
)

// TestFrameGolden pins the wire layout byte for byte: a frame written
// by any future implementation must match these exact bytes, and these
// exact bytes must parse back. Change the protocol, bump the version.
func TestFrameGolden(t *testing.T) {
	got := appendFrame(nil, Frame{Op: OpEncode, Status: StatusRequest, Payload: []byte("hi")})
	want := []byte{
		0x41, 0xF7, // magic
		1,       // version
		1,       // op encode
		0,       // status request
		0, 0, 0, // reserved
		0, 0, 0, 2, // payload length
		'h', 'i',
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden frame mismatch:\n got %x\nwant %x", got, want)
	}

	f, err := ReadFrame(bytes.NewReader(want), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != OpEncode || f.Status != StatusRequest || string(f.Payload) != "hi" {
		t.Fatalf("golden frame parsed to %+v", f)
	}

	// An empty-payload response frame, same treatment.
	got = appendFrame(nil, Frame{Op: OpStats, Status: StatusOK})
	want = []byte{0x41, 0xF7, 1, 5, 1, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden empty frame mismatch:\n got %x\nwant %x", got, want)
	}
}

// appendFrame appends f's wire encoding to dst.
func appendFrame(dst []byte, f Frame) []byte {
	return append(appendFrameHeader(dst, f.Op, f.Status, len(f.Payload)), f.Payload...)
}

// writeFrame writes f to w as one frame, the way the server and the
// client write theirs.
func writeFrame(w io.Writer, f Frame) error {
	var fw frameWriter
	return fw.write(w, f.Op, f.Status, nil, f.Payload)
}

// appendEncodeRequest appends an OpEncode request payload: the
// method/param prefix followed by data.
func appendEncodeRequest(dst []byte, method ecc.Method, param int, data []byte) []byte {
	h := encodeRequestHeader(method, param)
	return append(append(dst, h[:]...), data...)
}

// TestWriteFrameMatchesAppendFrame: frameWriter sends a head and a
// body without joining them, and the frame on the wire is the one
// appendFrame encodes from the joined payload, for every split.
func TestWriteFrameMatchesAppendFrame(t *testing.T) {
	payload := []byte("payload bytes")
	want := appendFrame(nil, Frame{Op: OpRepair, Status: StatusOK, Payload: payload})
	var fw frameWriter
	for split := 0; split <= len(payload); split++ {
		var buf bytes.Buffer
		if err := fw.write(&buf, OpRepair, StatusOK, payload[:split], payload[split:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("head of %d bytes: frameWriter and appendFrame disagree:\n%x\n%x", split, buf.Bytes(), want)
		}
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	valid := appendFrame(nil, Frame{Op: OpDecode, Status: StatusRequest, Payload: []byte("x")})
	mutate := func(i int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] = v
		return b
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"bad magic 0", mutate(0, 0x00)},
		{"bad magic 1", mutate(1, 0x00)},
		{"bad version", mutate(2, 2)},
		{"zero op", mutate(3, 0)},
		{"unknown op", mutate(3, 99)},
		{"unknown status", mutate(4, 99)},
		{"reserved byte 5", mutate(5, 1)},
		{"reserved byte 6", mutate(6, 1)},
		{"reserved byte 7", mutate(7, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFrame(bytes.NewReader(tc.in), 0, nil); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
		})
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := appendFrame(nil, Frame{Op: OpVerify, Status: StatusRequest, Payload: bytes.Repeat([]byte("a"), 100)})
	// A clean EOF between frames is io.EOF; anything shorter than a
	// whole frame is io.ErrUnexpectedEOF.
	if _, err := ReadFrame(bytes.NewReader(nil), 0, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	for _, n := range []int{1, FrameHeaderLen - 1, FrameHeaderLen, FrameHeaderLen + 50, len(full) - 1} {
		if _, err := ReadFrame(bytes.NewReader(full[:n]), 0, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated at %d: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	f := Frame{Op: OpEncode, Status: StatusRequest, Payload: bytes.Repeat([]byte("b"), 2048)}
	enc := appendFrame(nil, f)
	got, err := ReadFrame(bytes.NewReader(enc), 1024, nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// The refusal still identifies the request so a server can answer
	// it by op.
	if got.Op != OpEncode || got.Payload != nil {
		t.Fatalf("oversized frame returned %+v", got)
	}
	// At exactly the limit the frame is fine.
	if _, err := ReadFrame(bytes.NewReader(enc), 2048, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadFrameForgedLengthBoundedAlloc is the wire-side extension of
// the decoder-hardening contract: a header promising DefaultMaxPayload
// bytes backed by almost no data must cost bounded allocation, not a
// 32 MiB up-front make.
func TestReadFrameForgedLengthBoundedAlloc(t *testing.T) {
	header := appendFrame(nil, Frame{Op: OpDecode, Status: StatusRequest})
	// Rewrite the length field to promise the full default budget.
	header[8], header[9], header[10], header[11] = 0x02, 0x00, 0x00, 0x00 // 32 MiB
	for _, body := range []int{0, 1, directPayloadCap, directPayloadCap + 1, 3 * directPayloadCap} {
		in := append(append([]byte(nil), header...), make([]byte, body)...)
		delta := decodeAllocDelta(func() {
			if _, err := ReadFrame(bytes.NewReader(in), 0, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("body %d: err = %v, want io.ErrUnexpectedEOF", body, err)
			}
		})
		if budget := frameAllocBudget(len(in)); delta > budget {
			t.Fatalf("body %d: allocated %d bytes, budget %d", body, delta, budget)
		}
	}
}

// frameAllocBudget bounds the bytes ReadFrame may allocate for an
// input of inputLen bytes: geometric growth re-copies at most double
// the arrived data, plus the direct-allocation floor and slack for the
// test harness itself.
func frameAllocBudget(inputLen int) uint64 {
	return 8*uint64(inputLen) + (256 << 10)
}

// decodeAllocDelta measures the bytes allocated while fn runs (the
// idiom of the repo root's fuzz_test.go).
func decodeAllocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestReadFrameScratchReuse(t *testing.T) {
	payload := bytes.Repeat([]byte("s"), 4096)
	enc := appendFrame(nil, Frame{Op: OpDecode, Status: StatusOK, Payload: payload})
	scratch := make([]byte, 0, 8192)
	f, err := ReadFrame(bytes.NewReader(enc), 0, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Fatal("payload mismatch with scratch reuse")
	}
	if &f.Payload[0] != &scratch[:1][0] {
		t.Fatal("payload did not reuse the scratch buffer")
	}
}

func TestEncodeRequestRoundTrip(t *testing.T) {
	data := []byte("some plaintext")
	req := appendEncodeRequest(nil, ecc.MethodSECDED, 64, data)
	method, param, got, err := ParseEncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if method != ecc.MethodSECDED || param != 64 || !bytes.Equal(got, data) {
		t.Fatalf("round trip: method=%v param=%d data=%q", method, param, got)
	}
	for i := 0; i < encodeReqHeaderLen; i++ {
		if _, _, _, err := ParseEncodeRequest(req[:i]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("short request len %d: err = %v, want ErrBadFrame", i, err)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	want := Report{DetectedBlocks: 3, CorrectedBits: 2, CorrectedBlocks: 1}
	payload := append(AppendReport(nil, want), []byte("data")...)
	got, rest, err := ParseReport(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || string(rest) != "data" {
		t.Fatalf("round trip: %+v rest=%q", got, rest)
	}
	if _, _, err := ParseReport(payload[:reportLen-1]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short report: err = %v, want ErrBadFrame", err)
	}
}

// FuzzFrameDecode throws arbitrary bytes at ReadFrame and checks the
// hardened-decoder contract on the wire: bounded allocation whatever
// the length prefix claims, no panics, and exact re-encode round trips
// for every accepted frame.
func FuzzFrameDecode(f *testing.F) {
	f.Add(appendFrame(nil, Frame{Op: OpEncode, Status: StatusRequest, Payload: []byte("seed")}))
	f.Add(appendFrame(nil, Frame{Op: OpStats, Status: StatusOK}))
	forged := appendFrame(nil, Frame{Op: OpDecode, Status: StatusRequest})
	forged[8] = 0x7F // promise ~2 GiB
	f.Add(forged)
	f.Add([]byte{0x41, 0xF7, 1})
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var frame Frame
		var err error
		delta := decodeAllocDelta(func() {
			frame, err = ReadFrame(bytes.NewReader(data), 0, nil)
		})
		if delta > frameAllocBudget(len(data)) {
			t.Fatalf("ReadFrame allocated %d bytes for %d input bytes", delta, len(data))
		}
		if err != nil {
			return
		}
		// Accepted frames must survive an exact re-encode round trip,
		// and the encoding must be a prefix of the input (trailing
		// bytes are the next frame's business).
		enc := appendFrame(nil, frame)
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, data[:len(enc)])
		}
		back, err := ReadFrame(bytes.NewReader(enc), 0, nil)
		if err != nil {
			t.Fatalf("re-encoded frame failed to parse: %v", err)
		}
		if back.Op != frame.Op || back.Status != frame.Status || !bytes.Equal(back.Payload, frame.Payload) {
			t.Fatal("round-tripped frame differs")
		}
	})
}
