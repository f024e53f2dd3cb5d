package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"repro/internal/ecc"
)

// triplicate is a toy custom code: every byte stored three times,
// majority-voted on decode. Param is unused (grid of one).
type triplicate struct{}

func (triplicate) EncodedSize(n int) int { return 3 * n }

func (triplicate) EncodeTo(dst, data []byte, _ *ecc.Scratch) []byte {
	out := ecc.GrowTo(dst, 3*len(data))
	copy(out, data)
	copy(out[len(data):], data)
	copy(out[2*len(data):], data)
	return out
}

func (triplicate) DecodeTo(dst, enc []byte, origLen int, _ *ecc.Scratch) ([]byte, ecc.Report, error) {
	var rep ecc.Report
	if len(enc) < 3*origLen {
		return nil, rep, ecc.ErrTruncated
	}
	out := ecc.GrowTo(dst, origLen)
	for i := 0; i < origLen; i++ {
		a, b, c := enc[i], enc[origLen+i], enc[2*origLen+i]
		v := (a & b) | (a & c) | (b & c)
		out[i] = v
		if a != b || b != c {
			rep.DetectedBlocks++
			rep.CorrectedBlocks++
		}
	}
	return out, rep, nil
}

var tripleMethod = CustomMethod{
	ID:       CustomMethodBase,
	Name:     "triple",
	Params:   []int{1},
	Overhead: func(int) float64 { return 2.0 },
	Caps:     ecc.DetectSparse | ecc.CorrectSparse | ecc.CorrectBurst,
	Build: func(param, workers, devSize int) (ecc.Code, error) {
		return triplicate{}, nil
	},
}

func TestRegisterCustomValidation(t *testing.T) {
	if err := RegisterCustomMethod(CustomMethod{ID: 5}); err == nil {
		t.Fatal("reserved id must fail")
	}
	if err := RegisterCustomMethod(CustomMethod{ID: CustomMethodBase}); err == nil {
		t.Fatal("incomplete definition must fail")
	}
}

func TestCustomMethodEndToEnd(t *testing.T) {
	if err := RegisterCustomMethod(tripleMethod); err != nil {
		t.Fatal(err)
	}
	defer UnregisterCustomMethod(tripleMethod.ID)

	// Duplicate registration rejected.
	if err := RegisterCustomMethod(tripleMethod); err == nil {
		t.Fatal("duplicate id must fail")
	}

	// The family shows up in the configuration space.
	found := false
	for _, c := range AllConfigs() {
		if c.Method == tripleMethod.ID {
			found = true
			if c.String() != "triple1" {
				t.Fatalf("custom config string %q", c)
			}
			if c.Overhead() != 2.0 {
				t.Fatal("custom overhead not consulted")
			}
			if !c.Caps().Has(ecc.CorrectBurst) {
				t.Fatal("custom caps not consulted")
			}
		}
	}
	if !found {
		t.Fatal("custom config missing from AllConfigs")
	}

	// A fresh engine trains it and the optimizer can be pinned to it.
	eng, err := NewEngine(EngineOptions{MaxThreads: 1, CacheDir: "-", SampleBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, ok := eng.Table().Lookup("triple1", 1); !ok {
		t.Fatal("custom config not trained")
	}
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(80)).Read(data)
	enc, err := eng.Encode(data, AnyMem, AnyBW, Resiliency{Methods: []ecc.Method{tripleMethod.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Choice.Config.Method != tripleMethod.ID {
		t.Fatalf("chose %s", enc.Choice.Config)
	}
	// Decode dispatches by container method id, including repairs.
	mut := append([]byte(nil), enc.Encoded...)
	mut[ContainerOverheadBytes+500] ^= 0xFF
	dec, err := eng.Decode(mut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Data, data) {
		t.Fatal("custom decode mismatch")
	}
	if dec.Report.CorrectedBlocks != 1 {
		t.Fatalf("corrected %d, want 1", dec.Report.CorrectedBlocks)
	}
}

func TestCustomMethodSelectedByBudget(t *testing.T) {
	if err := RegisterCustomMethod(tripleMethod); err != nil {
		t.Fatal(err)
	}
	defer UnregisterCustomMethod(tripleMethod.ID)
	eng, err := NewEngine(EngineOptions{MaxThreads: 1, CacheDir: "-", SampleBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// With a budget of 2.5 the 2.0-overhead custom family is the
	// closest-under choice.
	choice, err := eng.Optimizer().Memory(2.5, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Config.Method != tripleMethod.ID {
		t.Fatalf("budget 2.5 chose %s, want the custom family", choice.Config)
	}
}

// aliasCode uses all the room the ecc.Code contract leaves a code:
// EncodeTo ignores dst, and DecodeTo hands back a subslice of encoded.
// It stores the data twice, each copy followed by its CRC-32, and
// decodes to the first copy whose CRC holds.
type aliasCode struct{}

func (aliasCode) EncodedSize(n int) int { return 2 * (n + 4) }

func (c aliasCode) EncodeTo(_, data []byte, _ *ecc.Scratch) []byte {
	out := make([]byte, 0, c.EncodedSize(len(data)))
	for k := 0; k < 2; k++ {
		out = append(out, data...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(data))
	}
	return out
}

func (c aliasCode) DecodeTo(_, enc []byte, origLen int, _ *ecc.Scratch) ([]byte, ecc.Report, error) {
	if len(enc) < c.EncodedSize(origLen) {
		return nil, ecc.Report{}, ecc.ErrTruncated
	}
	half := origLen + 4
	for k := 0; k < 2; k++ {
		cp := enc[k*half : k*half+origLen]
		if crc32.ChecksumIEEE(cp) == binary.LittleEndian.Uint32(enc[k*half+origLen:]) {
			return cp, ecc.Report{DetectedBlocks: k, CorrectedBlocks: k}, nil
		}
	}
	return enc[:origLen], ecc.Report{DetectedBlocks: 2}, ecc.ErrUncorrectable
}

// TestCustomCodeAdapter: a registered code whose results live in its own
// storage — a fresh encoding, a decode aliasing the payload — round-trips
// byte for byte on every read path, because the adapter puts the results
// where the chunk codec expects them. Pipelined readers recycle payload
// buffers while decoded chunks wait to be read, so a decode left
// aliasing its payload would change bytes after the fact.
func TestCustomCodeAdapter(t *testing.T) {
	m := CustomMethod{
		ID: CustomMethodBase + 2, Name: "alias", Params: []int{1},
		Overhead: func(int) float64 { return 1 },
		Caps:     ecc.DetectSparse | ecc.CorrectBurst,
		Build:    func(param, workers, devSize int) (ecc.Code, error) { return aliasCode{}, nil },
	}
	if err := RegisterCustomMethod(m); err != nil {
		t.Fatal(err)
	}
	defer UnregisterCustomMethod(m.ID)
	choice := Choice{Config: Config{Method: m.ID, Param: 1}, Threads: 1}
	data := make([]byte, 20_000)
	rand.New(rand.NewSource(0xA11A5)).Read(data)

	one, err := EncodeContainerWith(nil, data, choice)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range decodeEveryPath(t, one.Encoded, len(data)) {
		if r.class != "ok" || !bytes.Equal(r.data, data) {
			t.Errorf("clean: %s reports %q, bytes intact %v", r.name, r.class, bytes.Equal(r.data, data))
		}
	}
	// Both copies wrecked: over budget on every path.
	ruined := append([]byte(nil), one.Encoded...)
	for i := ContainerOverheadBytes; i < len(ruined); i += 1000 {
		ruined[i] ^= 0xFF
	}
	for _, r := range decodeEveryPath(t, ruined, len(data)) {
		if r.class != "uncorrectable" {
			t.Errorf("over budget: %s reports %q, want uncorrectable", r.name, r.class)
		}
	}

	// Twenty chunks, each decoded while the readers recycle the
	// payload buffers of the chunks around it.
	stream := encodeStream(t, choice, StreamOptions{ChunkSize: 1000, Pipeline: 4, Indexed: true}, data)
	for _, pl := range []int{1, 4} {
		cr := NewChunkReaderWith(bytes.NewReader(stream), 1, StreamOptions{Pipeline: pl})
		got, err := io.ReadAll(cr)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("ChunkReader pipeline %d: %v, bytes intact %v", pl, err, bytes.Equal(got, data))
		}
		if err := cr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rr, err := OpenRangeReader(bytes.NewReader(stream), int64(len(stream)), RangeOptions{Pipeline: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	got := make([]byte, len(data))
	if n, _, err := rr.ReadRange(got, 0, int64(len(data))); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Errorf("RangeReader: %d bytes, %v, bytes intact %v", n, err, bytes.Equal(got, data))
	}
}

func TestCustomConfigStringFallback(t *testing.T) {
	c := Config{Method: 200, Param: 3}
	if got := c.String(); got != fmt.Sprintf("unknown-%d-%d", 200, 3) {
		t.Fatalf("unregistered custom id string %q", got)
	}
	if _, err := c.Build(1); err == nil {
		t.Fatal("unregistered custom id must not build")
	}
}
