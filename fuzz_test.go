package arc

// Native fuzz targets for every decoder that consumes untrusted bytes.
// `go test` runs the seed corpus as regression tests; `go test -fuzz
// FuzzX` explores further. The invariant under test is uniform: a
// decoder may reject input with an error but must never panic, hang,
// or allocate unboundedly.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	mrand "math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/pressio"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// FuzzContainerDecode has two halves. Arbitrary bytes must decode to
// an error or a result, never a panic. And damage — the bytes of
// damage XORed into a valid container of a known plaintext, for the
// configuration cfg picks, from byte off on — must decode to an error
// or exactly the plaintext: never silently wrong.
func FuzzContainerDecode(f *testing.F) {
	plain := make([]byte, 4096)
	mrand.New(mrand.NewSource(0xF022)).Read(plain)
	configs := core.AllConfigs()
	containers := make([][]byte, len(configs))
	for i, c := range configs {
		enc, err := EncodeContainer(plain, Choice{Config: c, Threads: 1})
		if err != nil {
			f.Fatal(err)
		}
		containers[i] = enc.Encoded
	}
	secded64 := slices.Index(configs, core.Config{Method: SECDED, Param: 64})

	// Seed with a valid container and a few mutations.
	f.Add(containers[secded64], uint8(0), uint32(0), []byte{})
	f.Add([]byte{}, uint8(0), uint32(0), []byte{})
	f.Add([]byte("ARC1 but not really a container........"), uint8(0), uint32(0), []byte{})
	mut := append([]byte(nil), containers[secded64]...)
	mut[3] ^= 0xFF
	f.Add(mut, uint8(0), uint32(0), []byte{})
	// Three flips in one data byte: SEC-DED(72,64) takes them for one
	// and "repairs" a fourth bit. Only the chunk digest refuses it.
	f.Add([]byte{}, uint8(secded64), uint32(1000), []byte{0x07})
	f.Add([]byte{}, uint8(secded64), uint32(110), bytes.Repeat([]byte{0xFF}, 8)) // header and payload
	f.Fuzz(func(t *testing.T, data []byte, cfg uint8, off uint32, damage []byte) {
		if len(data) > 1<<20 || len(damage) > 1<<16 {
			return
		}
		_, _ = Decode(data, 1)

		c := int(cfg) % len(configs)
		mut := append([]byte(nil), containers[c]...)
		for i, d := range damage {
			mut[(int(off)+i)%len(mut)] ^= d
		}
		res, err := Decode(mut, 1)
		if err == nil && !bytes.Equal(res.Data, plain) {
			t.Fatalf("%s: %d damage bytes at %d decoded to wrong bytes without an error", configs[c], len(damage), off)
		}
	})
}

func FuzzSZDecompress(f *testing.F) {
	field := make([]float64, 256)
	for i := range field {
		field[i] = float64(i % 17)
	}
	valid, err := sz.Compress(field, []int{16, 16}, sz.Options{Mode: sz.ModeABS, ErrorBound: 0.1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SZG1 followed by garbage............."))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0x10
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		_, _, _ = sz.Decompress(nil, data)
	})
}

func FuzzZFPDecompress(f *testing.F) {
	field := make([]float64, 256)
	for i := range field {
		field[i] = float64(i) * 0.25
	}
	for _, opts := range []zfp.Options{
		{Mode: zfp.ModeAccuracy, Param: 0.01},
		{Mode: zfp.ModeRate, Param: 8},
	} {
		valid, err := zfp.Compress(field, []int{16, 16}, opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		mut := append([]byte(nil), valid...)
		mut[len(mut)-1] ^= 0x01
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		_, _, _ = zfp.Decompress(nil, data)
	})
}

// FuzzPressioDecompress feeds arbitrary bytes to both codecs' pressio
// decoders, which take a bare stream or a slab container (an index of
// per-slab stream lengths in front of the streams). Seeds are one
// multi-slab container per codec, kept to a few hundred bytes by
// fields their codec predicts almost perfectly. Every input must decode
// or fail without a panic, within the allocation budget of the
// single-stream decoders' corrupt-header fuzzers.
func FuzzPressioDecompress(f *testing.F) {
	const n = 1<<18 + 1000 // just past the cut threshold
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	comps := make([]pressio.Compressor, 0, 2)
	for _, seed := range []struct {
		name  string
		bound float64
		data  []float64
		dims  []int
	}{
		{"SZ-ABS", 0.5, ramp, []int{n}},
		{"ZFP-ACC", 0.01, make([]float64, 68*64*64), []int{68, 64, 64}},
	} {
		c, err := pressio.New(seed.name, seed.bound)
		if err != nil {
			f.Fatal(err)
		}
		valid, err := c.Compress(seed.data, seed.dims)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		mut := slices.Clone(valid)
		mut[len(mut)/2] ^= 0x10
		f.Add(mut)
		comps = append(comps, c)
	}
	f.Add([]byte("PSLB"))
	// An index claiming the cap's 2^27 values in 512 slabs of 32 bytes
	// each: the output may be sized only after every slab has opened.
	forged := binary.LittleEndian.AppendUint32([]byte("PSLB\x01"), 1<<27)
	for range 512 {
		forged = binary.LittleEndian.AppendUint32(forged, 32)
	}
	f.Add(append(forged, make([]byte, 32*512)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		for _, c := range comps {
			if delta := decodeAllocDelta(func() {
				_, _, _ = c.Decompress(data)
			}); delta > corruptAllocBudget(len(data)) {
				t.Fatalf("%s: decode allocated %d bytes for a %d-byte input", c.Name(), delta, len(data))
			}
		}
	})
}

func FuzzHuffmanTable(f *testing.F) {
	codec, err := huffman.Build([]int64{10, 5, 3, 2, 1})
	if err != nil {
		f.Fatal(err)
	}
	var w bitio.Writer
	codec.WriteTable(&w)
	for i := 0; i < 64; i++ {
		codec.Encode(&w, i%5)
	}
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return
		}
		r := bitio.NewReader(data)
		c, err := huffman.ReadTable(r)
		if err != nil {
			return
		}
		// Decode everything the stream claims to hold; errors fine.
		for i := 0; i < 1<<16; i++ {
			if _, err := c.Decode(r); err != nil {
				return
			}
		}
	})
}

func FuzzStreamReader(f *testing.F) {
	eng, err := InitWithOptions(1, Options{CacheDir: "-", TrainSampleBytes: 16 << 10})
	if err != nil {
		f.Fatal(err)
	}
	defer eng.Close()
	var buf bytes.Buffer
	w, err := eng.NewWriterWith(&buf, AnyMem, AnyBW, AnyECC, StreamOptions{ChunkSize: 2048})
	if err != nil {
		f.Fatal(err)
	}
	_, _ = w.Write(bytes.Repeat([]byte{7}, 6000))
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte{})
	for _, forged := range forgedOrigLenStreams(f) {
		f.Add(forged)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		if delta := decodeAllocDelta(func() {
			r := NewReader(bytes.NewReader(data), 1)
			tmp := make([]byte, 4096)
			for i := 0; i < 1<<12; i++ {
				if _, err := r.Read(tmp); err != nil {
					return
				}
			}
		}); delta > corruptAllocBudget(len(data)) {
			t.Fatalf("stream read allocated %d bytes for a %d-byte input", delta, len(data))
		}
	})
}

// forgedOrigLenStreams returns one-chunk SEC-DED(64) streams whose
// header — CRC-valid in all three replicas — claims 1 GiB and 8 GiB of
// original bytes over the 9-byte payload that really holds 8. The
// stream reader once sized its output buffer off that field.
func forgedOrigLenStreams(f *testing.F) [][]byte {
	enc, err := EncodeContainer(make([]byte, 8), Choice{Config: core.Config{Method: SECDED, Param: 64}, Threads: 1})
	if err != nil {
		f.Fatal(err)
	}
	const replica = ContainerOverheadBytes / 3
	var out [][]byte
	for _, origLen := range []uint64{1 << 30, 1 << 33} {
		forged := append([]byte(nil), enc.Encoded...)
		one := forged[:replica]
		// docs/FORMAT.md, chunk header version 2: OrigLen at 14, the
		// CRC over everything before it in the replica's last 4 bytes.
		binary.LittleEndian.PutUint64(one[14:], origLen)
		binary.LittleEndian.PutUint32(one[replica-4:], crc32.ChecksumIEEE(one[:replica-4]))
		copy(forged[replica:], one)
		copy(forged[2*replica:], one)
		out = append(out, forged)
	}
	return out
}

// FuzzStreamReaderPipelined drives the concurrent read-ahead path over
// arbitrary bytes: same no-panic/no-hang invariant as FuzzStreamReader,
// plus the pipeline must always shut down cleanly — both when a stream
// is read to its terminal error and when it is abandoned via Close
// after the first chunk.
func FuzzStreamReaderPipelined(f *testing.F) {
	eng, err := InitWithOptions(1, Options{CacheDir: "-", TrainSampleBytes: 16 << 10})
	if err != nil {
		f.Fatal(err)
	}
	defer eng.Close()
	var buf bytes.Buffer
	w, err := eng.NewWriterWith(&buf, AnyMem, AnyBW, AnyECC, StreamOptions{ChunkSize: 1024, Pipeline: 4})
	if err != nil {
		f.Fatal(err)
	}
	_, _ = w.Write(bytes.Repeat([]byte{3}, 6000))
	_ = w.Close()
	f.Add(buf.Bytes(), true)
	f.Add(buf.Bytes(), false)
	f.Add([]byte{}, true)
	mut := append([]byte(nil), buf.Bytes()...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut, true)
	for _, forged := range forgedOrigLenStreams(f) {
		f.Add(forged, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, drain bool) {
		if len(data) > 1<<20 {
			return
		}
		if delta := decodeAllocDelta(func() {
			r := NewReaderWith(bytes.NewReader(data), 1, StreamOptions{Pipeline: 4})
			defer r.Close()
			tmp := make([]byte, 4096)
			for i := 0; i < 1<<12; i++ {
				if _, err := r.Read(tmp); err != nil {
					return
				}
				if !drain {
					return // exercise Close-without-drain
				}
			}
		}); delta > corruptAllocBudget(len(data)) {
			t.Fatalf("pipelined stream read allocated %d bytes for a %d-byte input", delta, len(data))
		}
	})
}

// FuzzIndexDecode drives the v2 footer/trailer parser with arbitrary
// tails behind a pristine chunk stream. The index is an optimization,
// never an authority: whatever the tail claims, opening must not
// panic, allocations stay bounded, a reader that fell back to the
// scan path must deliver the full original bytes, and a reader that
// accepted an index must either return the original bytes or an error
// — never wrong data.
func FuzzIndexDecode(f *testing.F) {
	orig := make([]byte, 3*4096)
	for i := range orig {
		orig[i] = byte(i*7 + i>>9)
	}
	eng := &core.Engine{}
	choice := core.Choice{Config: core.Config{Method: SECDED, Param: 64}, Threads: 1}
	encode := func(indexed bool) []byte {
		var buf bytes.Buffer
		w, err := eng.NewChunkWriterChoice(&buf, choice,
			core.StreamOptions{ChunkSize: 4096, Pipeline: 1, Indexed: indexed})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := w.Write(orig); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	prefix := encode(false) // the bare v1 chunk stream
	v2 := encode(true)      // identical prefix + index footer + trailer
	footer := v2[len(prefix):]

	f.Add(footer) // the real footer: the index must load
	f.Add([]byte{})
	f.Add(make([]byte, len(footer))) // zeroed: no trailer magic
	f.Add(footer[:len(footer)-30])   // truncated mid-trailer
	f.Add(footer[len(footer)-72:])   // trailer pointing past the file
	flipped := append([]byte(nil), footer...)
	flipped[10] ^= 0x04 // one bit in the index payload: ECC territory
	f.Add(flipped)
	broken := append([]byte(nil), footer...)
	for i := len(broken) - 72; i < len(broken); i++ {
		broken[i] ^= 0xA5 // all three trailer replicas damaged
	}
	f.Add(broken)

	f.Fuzz(func(t *testing.T, tail []byte) {
		if len(tail) > 1<<16 {
			return
		}
		data := append(append([]byte(nil), prefix...), tail...)
		got := make([]byte, len(orig))
		var r *ReaderAt
		var n int
		var err error
		delta := decodeAllocDelta(func() {
			r, err = OpenReaderAt(bytes.NewReader(data), int64(len(data)), RangeOptions{Pipeline: 1})
			if err != nil {
				t.Fatalf("open must fall back to the scan, not fail: %v", err)
			}
			defer r.Close()
			n, _, err = r.ReadRange(got, 0, int64(len(orig)))
		})
		if delta > corruptAllocBudget(len(data)) {
			t.Fatalf("decode allocated %d bytes for a %d-byte input", delta, len(data))
		}
		if !r.Indexed() && err != nil {
			// The chunk prefix is pristine: the scan fallback has no
			// excuse not to serve it.
			t.Fatalf("scan-path read failed: %v", err)
		}
		if err == nil {
			if n != len(orig) || !bytes.Equal(got[:n], orig) {
				t.Fatalf("read returned wrong bytes (indexed=%v, n=%d)", r.Indexed(), n)
			}
		}
	})
}

// FuzzBitIORoundTrip drives the word-level bit writer/reader with an
// arbitrary (value, width) field sequence decoded from the fuzz input:
// each field takes 1 width byte (mod 65) and 8 value bytes. Every
// field written must read back bit-exactly (masked to its width), the
// write and read cursors must agree, and reading one bit past the end
// must fail — pinning the accumulator kernels against the per-bit
// semantics the stream formats were built on. The writer starts behind
// a caller-supplied prefix (bitio.NewWriter) whose length the input
// picks; the prefix must come back untouched and uncounted.
func FuzzBitIORoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xFF, 64, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{57, 0xAA}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var vals []uint64
		var widths []int
		prefix := bytes.Repeat([]byte{0xC3}, len(data)%11)
		w := bitio.NewWriter(bytes.Clone(prefix))
		total := 0
		for i := 0; i+9 <= len(data); i += 9 {
			n := int(data[i]) % 65
			var v uint64
			for j := 1; j <= 8; j++ {
				v = v<<8 | uint64(data[i+j])
			}
			w.WriteBits(v, n)
			if n < 64 {
				v &= 1<<uint(n) - 1
			}
			vals = append(vals, v)
			widths = append(widths, n)
			total += n
			if w.Len() != total {
				t.Fatalf("Len %d after %d written bits", w.Len(), total)
			}
		}
		buf := w.Bytes()
		if !bytes.HasPrefix(buf, prefix) {
			t.Fatalf("prefix % x came back as % x", prefix, buf[:min(len(buf), len(prefix))])
		}
		buf = buf[len(prefix):]
		if len(buf) != (total+7)/8 {
			t.Fatalf("buffer %d bytes for %d bits", len(buf), total)
		}
		r := bitio.NewReader(buf)
		for i, n := range widths {
			got, err := r.ReadBits(n)
			if err != nil {
				t.Fatalf("field %d: %v", i, err)
			}
			if got != vals[i] {
				t.Fatalf("field %d (width %d): %#x != %#x", i, n, got, vals[i])
			}
		}
		if r.Pos() != total {
			t.Fatalf("read cursor %d != %d", r.Pos(), total)
		}
		// The flush padding is readable but nothing beyond it.
		if err := r.Skip(r.Remaining()); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadBit(); err == nil {
			t.Fatal("read past end succeeded")
		}
	})
}

// corruptAllocBudget is the allocation ceiling for decoding one
// corrupted stream: a fixed multiple of the input size plus slack for
// fixed-size decode state (Huffman decode tables and LUT, flate
// window, block scratch). The decoder hardening work (see
// docs/DECODER_HARDENING.md) exists to keep every header-driven
// allocation under this kind of bound.
func corruptAllocBudget(inputLen int) uint64 {
	return 4096*uint64(inputLen) + (8 << 20)
}

// decodeAllocDelta measures the bytes allocated while fn runs.
// TotalAlloc is cumulative, so the delta is unaffected by garbage
// collection in between.
func decodeAllocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzSZDecodeCorruptHeader flips bytes in the header regions of a
// fixed valid SZ stream — both the outer lossless wrapper (magic +
// payload length) and the inner header holding dims, counts, and
// section lengths — and requires every mutation to decode to an error
// or a clean result, never a panic, with allocations bounded by a
// fixed multiple of the input size.
func FuzzSZDecodeCorruptHeader(f *testing.F) {
	field := make([]float64, 256)
	for i := range field {
		field[i] = math.Sin(float64(i) / 7)
	}
	valid, err := sz.Compress(field, []int{16, 16}, sz.Options{Mode: sz.ModeABS, ErrorBound: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	// The inner payload is what the outer DEFLATE pass wraps; keeping
	// it around lets the fuzz body corrupt the inner header directly
	// instead of hoping a compressed-byte flip lands there.
	inner := bytes.NewBuffer(nil)
	fr := flate.NewReader(bytes.NewReader(valid[12:]))
	if _, err := io.Copy(inner, fr); err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(4), byte(0xFF))  // outer payload length, low byte
	f.Add(uint16(11), byte(0x7F)) // outer payload length, high byte
	f.Add(uint16(0), byte(0x01))  // outer magic
	f.Add(uint16(7), byte(0x20))  // inner ndims/dims region
	f.Add(uint16(45), byte(0xFF)) // inner unpredictable/huffman counts
	f.Fuzz(func(t *testing.T, pos uint16, mask byte) {
		// Outer-header mutation.
		data := append([]byte(nil), valid...)
		span := len(data)
		if span > 64 {
			span = 64
		}
		data[int(pos)%span] ^= mask
		if delta := decodeAllocDelta(func() {
			_, _, _ = sz.Decompress(nil, data)
		}); delta > corruptAllocBudget(len(data)) {
			t.Fatalf("outer-corrupted decode allocated %d bytes for a %d-byte input", delta, len(data))
		}

		// Inner-header mutation: corrupt the pre-DEFLATE bytes, then
		// rebuild a well-formed lossless wrapper around them so the
		// parser sees the corrupted metadata itself.
		innerMut := append([]byte(nil), inner.Bytes()...)
		span = len(innerMut)
		if span > 64 {
			span = 64
		}
		innerMut[int(pos)%span] ^= mask
		var rewrapped bytes.Buffer
		rewrapped.WriteString("SZG1")
		var lenField [8]byte
		binary.LittleEndian.PutUint64(lenField[:], uint64(len(innerMut)))
		rewrapped.Write(lenField[:])
		fw, err := flate.NewWriter(&rewrapped, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(innerMut); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		data = rewrapped.Bytes()
		if delta := decodeAllocDelta(func() {
			_, _, _ = sz.Decompress(nil, data)
		}); delta > corruptAllocBudget(len(data)) {
			t.Fatalf("inner-corrupted decode allocated %d bytes for a %d-byte input", delta, len(data))
		}
	})
}

// FuzzZFPDecodeCorruptHeader is the ZFP counterpart: the header
// (magic, version, mode, dims, param) is stored uncompressed, so a
// direct byte flip reaches every field. Decode must fail with a
// bounded error.
func FuzzZFPDecodeCorruptHeader(f *testing.F) {
	field := make([]float64, 256)
	for i := range field {
		field[i] = float64(i) * 0.5
	}
	var streams [][]byte
	for _, opts := range []zfp.Options{
		{Mode: zfp.ModeAccuracy, Param: 0.01},
		{Mode: zfp.ModeRate, Param: 8},
	} {
		valid, err := zfp.Compress(field, []int{16, 16}, opts)
		if err != nil {
			f.Fatal(err)
		}
		streams = append(streams, valid)
	}
	f.Add(uint16(5), byte(0xFF))  // mode byte
	f.Add(uint16(5), byte(0x01))  // mode byte: Rate (2) becomes 3
	f.Add(uint16(5), byte(0x02))  // mode byte: ACC (1) becomes 3
	f.Add(uint16(6), byte(0x03))  // ndims
	f.Add(uint16(7), byte(0x80))  // dim 0, low byte
	f.Add(uint16(10), byte(0x10)) // dim 0, high byte
	f.Add(uint16(15), byte(0x7F)) // param bits
	f.Fuzz(func(t *testing.T, pos uint16, mask byte) {
		for _, valid := range streams {
			data := append([]byte(nil), valid...)
			span := len(data)
			if span > 23 { // magic(4)+ver+mode+ndims+2*dim(4)+param(8)
				span = 23
			}
			data[int(pos)%span] ^= mask
			if delta := decodeAllocDelta(func() {
				_, _, _ = zfp.Decompress(nil, data)
			}); delta > corruptAllocBudget(len(data)) {
				t.Fatalf("corrupted decode allocated %d bytes for a %d-byte input", delta, len(data))
			}
		}
	})
}
