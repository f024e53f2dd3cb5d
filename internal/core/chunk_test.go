package core

// Tests for the chunk codec (chunk.go) as seen through its four
// callers: the one-shot API, ChunkWriter/ChunkReader, and RangeReader.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ecc"
)

// errClass names what kind of failure a read path reported.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ecc.ErrUncorrectable):
		return "uncorrectable"
	case errors.Is(err, ErrContainer):
		return "container"
	default:
		return "other: " + err.Error()
	}
}

// pathResult is one read path's verdict on one chunk.
type pathResult struct {
	name  string
	data  []byte // nil when the path delivered nothing
	rep   Report
	class string
}

// decodeEveryPath runs one single-chunk stream through all four read
// paths with one codec worker each.
func decodeEveryPath(t *testing.T, stream []byte, origLen int) []pathResult {
	t.Helper()
	var out []pathResult

	res, err := DecodeContainer(stream, 1)
	r := pathResult{name: "DecodeContainer", class: errClass(err)}
	if res != nil {
		r.rep.add(res.Report)
		if err == nil {
			r.data = res.Data
		}
	}
	out = append(out, r)

	for _, pl := range []int{1, 4} {
		cr := NewChunkReaderWith(bytes.NewReader(stream), 1, StreamOptions{Pipeline: pl})
		got, err := io.ReadAll(cr)
		r := pathResult{name: fmt.Sprintf("ChunkReader/pipeline=%d", pl), rep: cr.Report(), class: errClass(err)}
		if err == nil {
			r.data = got
		}
		out = append(out, r)
		if err := cr.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rr, err := OpenRangeReader(bytes.NewReader(stream), int64(len(stream)), RangeOptions{Pipeline: 1})
	if err != nil {
		t.Fatalf("open range reader: %v", err)
	}
	defer rr.Close()
	dst := make([]byte, origLen)
	n, rep, err := rr.ReadRange(dst, 0, int64(origLen))
	r = pathResult{name: "RangeReader", rep: rep, class: errClass(err)}
	if err == nil {
		r.data = dst[:n]
	}
	return append(out, r)
}

// TestChunkCodecPathsAgree pins the point of having one chunk codec:
// for every configuration the one-shot encoder and a one-chunk stream
// write the same bytes, and every read path gives the same verdict —
// same bytes, same repair report, same class of error — on the same
// clean, repairable, or ruined chunk.
func TestChunkCodecPathsAgree(t *testing.T) {
	if err := RegisterCustomMethod(tripleMethod); err != nil {
		t.Fatal(err)
	}
	defer UnregisterCustomMethod(tripleMethod.ID)

	data := make([]byte, 6000+37)
	rand.New(rand.NewSource(0xA9EE)).Read(data)
	sawCustom := false
	for _, cfg := range AllConfigs() {
		sawCustom = sawCustom || cfg.Method == tripleMethod.ID
		choice := Choice{Config: cfg, Threads: 1}
		one, err := EncodeContainerWith(data, choice)
		if err != nil {
			t.Fatalf("%s: one-shot encode: %v", cfg, err)
		}
		for _, pl := range []int{1, 4} {
			stream := encodeStream(t, choice, StreamOptions{ChunkSize: len(data), Pipeline: pl}, data)
			if !bytes.Equal(one.Encoded, stream) {
				t.Fatalf("%s: one-shot container differs from a one-chunk stream (pipeline %d)", cfg, pl)
			}
		}

		budget := correctionBudget(cfg)
		if cfg.Method == tripleMethod.ID {
			budget = 1
		}
		damages := []struct {
			name   string
			repair bool // must decode to the original bytes
			apply  func(payload []byte, rng *rand.Rand)
		}{
			{"clean", true, func([]byte, *rand.Rand) {}},
			{"within-budget", budget > 0, func(p []byte, rng *rand.Rand) {
				for f := 0; f < max(budget, 1); f++ {
					bit := rng.Intn(len(p) * 8)
					p[bit/8] ^= 0x80 >> (bit % 8)
				}
			}},
			// Half the payload inverted: more devices than any RS
			// geometry rebuilds, multi-bit damage in every codeword.
			{"over-budget", false, func(p []byte, _ *rand.Rand) {
				for i := range p[:len(p)/2] {
					p[i] ^= 0xFF
				}
			}},
		}
		for _, dmg := range damages {
			stream := append([]byte(nil), one.Encoded...)
			dmg.apply(stream[ContainerOverheadBytes:], rand.New(rand.NewSource(int64(len(stream)))))
			results := decodeEveryPath(t, stream, len(data))
			ref := results[0]
			if dmg.repair && (ref.class != "ok" || !bytes.Equal(ref.data, data)) {
				t.Fatalf("%s/%s: %s: class %q, bytes intact %v", cfg, dmg.name, ref.name, ref.class, bytes.Equal(ref.data, data))
			}
			for _, r := range results[1:] {
				if r.class != ref.class {
					t.Errorf("%s/%s: %s reports %q, %s reports %q", cfg, dmg.name, r.name, r.class, ref.name, ref.class)
				}
				if !bytes.Equal(r.data, ref.data) {
					t.Errorf("%s/%s: %s and %s deliver different bytes", cfg, dmg.name, r.name, ref.name)
				}
				// A range read that fails reports nothing: the chunk was
				// neither served nor cached.
				if r.rep != ref.rep && !(r.name == "RangeReader" && r.class != "ok") {
					t.Errorf("%s/%s: %s report %+v, %s report %+v", cfg, dmg.name, r.name, r.rep, ref.name, ref.rep)
				}
			}
		}
	}
	if !sawCustom {
		t.Fatal("the custom code was not part of the table")
	}
}

// forgedChunk is a complete chunk whose CRC-valid header claims
// origLen original bytes over a 9-byte SEC-DED(64) payload (which
// really holds 8).
func forgedChunk(origLen int) []byte {
	h := header{Method: ecc.MethodSECDED, Param: 64, OrigLen: origLen, EncLen: 9}
	return append(marshalHeader(h), make([]byte, 9)...)
}

// TestForgedOrigLenCostsAnErrorNotMemory: a header is trusted only as
// far as the payload in hand bears it out. Before the stream reader
// shared the range reader's geometry check, this 111-byte stream made
// it allocate OrigLen bytes (8 GiB) and park the buffer in
// chunkBufPool. The allocation bound also shows nothing oversized
// reached the pool: no such buffer ever existed.
func TestForgedOrigLenCostsAnErrorNotMemory(t *testing.T) {
	for _, origLen := range []int{1 << 30, 1 << 33} {
		stream := forgedChunk(origLen)
		for _, pl := range []int{1, 4} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cr := NewChunkReaderWith(bytes.NewReader(stream), 1, StreamOptions{Pipeline: pl})
			got, err := io.ReadAll(cr)
			if cerr := cr.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrContainer) || len(got) != 0 {
				t.Errorf("OrigLen=%d pipeline=%d: %d bytes, err %v; want an ErrContainer failure", origLen, pl, len(got), err)
			}
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(stream)+1<<20); grew > limit {
				t.Errorf("OrigLen=%d pipeline=%d: allocated %d bytes for a %d-byte stream (limit %d)", origLen, pl, grew, len(stream), limit)
			}
		}
		if _, err := DecodeContainer(stream, 1); !errors.Is(err, ErrContainer) {
			t.Errorf("OrigLen=%d: one-shot decode: %v, want ErrContainer", origLen, err)
		}
	}
}

// lyingCode encodes like triplicate but declares one byte more than it
// writes.
type lyingCode struct{ triplicate }

func (lyingCode) Name() string          { return "liar1" }
func (lyingCode) EncodedSize(n int) int { return 3*n + 1 }

// TestEncodeRefusesCodeThatMisstatesItsSize: every decoder sizes and
// checks a chunk off EncodedSize, so a code whose Encode disagrees with
// it must be stopped before it writes a file only some readers accept.
func TestEncodeRefusesCodeThatMisstatesItsSize(t *testing.T) {
	liar := tripleMethod
	liar.ID, liar.Name = CustomMethodBase+1, "liar"
	liar.Build = func(param, workers, devSize int) (ecc.Code, error) { return lyingCode{}, nil }
	if err := RegisterCustomMethod(liar); err != nil {
		t.Fatal(err)
	}
	defer UnregisterCustomMethod(liar.ID)

	choice := Choice{Config: Config{Method: liar.ID, Param: 1}, Threads: 1}
	data := bytes.Repeat([]byte{0x5A}, 3000)
	check := func(where string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "liar1") {
			t.Errorf("%s: got %v, want a refusal naming the code", where, err)
		}
	}
	_, err := EncodeContainerWith(data, choice)
	check("one-shot", err)
	for _, pl := range []int{1, 4} {
		var buf bytes.Buffer
		cw, err := streamTestEngine(4).NewChunkWriterChoice(&buf, choice, StreamOptions{ChunkSize: 1000, Pipeline: pl, Indexed: true})
		if err != nil {
			t.Fatal(err)
		}
		_, werr := cw.Write(data)
		if cerr := cw.Close(); werr == nil {
			werr = cerr
		}
		check("stream", werr)
		if buf.Len() != 0 {
			t.Errorf("pipeline %d: %d bytes written before the refusal", pl, buf.Len())
		}
	}
}

// TestOneShotSteadyStateAllocs pins the one-shot API (what arcd serves)
// on the scratch-reusing path: a call allocates the buffer it returns
// and the result struct, nothing per codec or per stripe.
func TestOneShotSteadyStateAllocs(t *testing.T) {
	skipIfAllocCountingUnreliable(t)
	const budget = 3.0
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data)
	for _, cfg := range []Config{{ecc.MethodSECDED, 64}, {ecc.MethodReedSolomon, 15}} {
		choice := Choice{Config: cfg, Threads: 1}
		enc, err := EncodeContainerWith(data, choice) // also warms the scratch
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeContainer(enc.Encoded, 1); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := EncodeContainerWith(data, choice); err != nil {
				t.Fatal(err)
			}
		}); avg > budget {
			t.Errorf("%s: one-shot encode = %.2f allocs/op, budget %.0f", cfg, avg, budget)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := DecodeContainer(enc.Encoded, 1); err != nil {
				t.Fatal(err)
			}
		}); avg > budget {
			t.Errorf("%s: one-shot decode = %.2f allocs/op, budget %.0f", cfg, avg, budget)
		}
		if cfg.Method != ecc.MethodReedSolomon {
			continue
		}
		// Repair is held to the same budget: 7 of the stripe's 256
		// devices damaged (one of them parity), solved on the scratch.
		damaged := append([]byte(nil), enc.Encoded...)
		devSize := cfg.DeviceSizeFor(len(data))
		for _, d := range []int{0, 37, 74, 111, 148, 240, 250} {
			damaged[ContainerOverheadBytes+d*devSize+d] ^= 0x5A
		}
		repair := func() {
			res, err := DecodeContainer(damaged, 1)
			if err != nil {
				t.Fatalf("%s: damaged decode: %v", cfg, err)
			}
			if res.Report.CorrectedBlocks != 7 {
				t.Fatalf("%s: damaged decode corrected %d devices, want 7", cfg, res.Report.CorrectedBlocks)
			}
		}
		repair() // grows the scratch's repair slot
		if avg := testing.AllocsPerRun(100, repair); avg > budget {
			t.Errorf("%s: one-shot repair = %.2f allocs/op, budget %.0f", cfg, avg, budget)
		}
	}
}
