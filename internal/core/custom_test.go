package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ecc"
)

// triplicate is a toy custom code: every byte stored three times,
// majority-voted on decode. Param is unused (grid of one). It returns
// the CRC-32C of its output, as the built-ins do.
type triplicate struct{}

func (triplicate) EncodedSize(n int) int { return 3 * n }

func (triplicate) EncodeTo(dst, data []byte, _ *ecc.Scratch) ([]byte, uint32) {
	out := ecc.GrowTo(dst, 3*len(data))
	copy(out, data)
	copy(out[len(data):], data)
	copy(out[2*len(data):], data)
	return out, crc32.Checksum(data, ecc.Castagnoli)
}

func (triplicate) DecodeTo(dst, enc []byte, origLen int, _ *ecc.Scratch) ([]byte, uint32, ecc.Report, error) {
	var rep ecc.Report
	if len(enc) < 3*origLen {
		return nil, 0, rep, ecc.ErrTruncated
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
	return out, crc32.Checksum(out, ecc.Castagnoli), rep, nil
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
	// The training table is keyed by Config.String, so a family whose
	// configuration names repeat one already in the space, or each
	// other, would be rated with another configuration's speed.
	for _, m := range []CustomMethod{
		{Name: "secded", Params: []int{64}},   // secded64 is a built-in's
		{Name: "secded6", Params: []int{4}},   // so is secded6 + 4
		{Name: "twice", Params: []int{1, 1}},  // twice1, twice1
		{Name: "triple", Params: []int{2, 1}}, // triple1 is registered below
	} {
		m.ID = CustomMethodBase + 7
		m.Overhead, m.Caps, m.Build = tripleMethod.Overhead, tripleMethod.Caps, tripleMethod.Build
		func() {
			if m.Name == "triple" {
				if err := RegisterCustomMethod(tripleMethod); err != nil {
					t.Fatal(err)
				}
				defer UnregisterCustomMethod(tripleMethod.ID)
			}
			if err := RegisterCustomMethod(m); err == nil {
				UnregisterCustomMethod(m.ID)
				t.Errorf("%s%v registered over a configuration name in use", m.Name, m.Params)
			}
		}()
	}
}

// TestRegistryConcurrentUse: built-in and custom families share one
// table, so registering and unregistering a family must not disturb the
// goroutines reading the built-ins (run it under -race).
func TestRegistryConcurrentUse(t *testing.T) {
	m := tripleMethod
	m.ID = CustomMethodBase + 9
	m.Name = "racer"
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 200; i++ {
			if err := RegisterCustomMethod(m); err != nil {
				t.Error(err)
				return
			}
			UnregisterCustomMethod(m.ID)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cs := AllConfigs()
				if len(cs) < 26 {
					t.Errorf("AllConfigs lists %d configurations while a family comes and goes", len(cs))
					return
				}
				c := Config{ecc.MethodSECDED, 64}
				if c.String() != "secded64" || c.Overhead() != 0.125 || c.Caps() != ecc.DetectSparse|ecc.CorrectSparse {
					t.Errorf("secded64 reads %q %v %s", c, c.Overhead(), c.Caps())
					return
				}
				if _, err := c.Build(1); err != nil {
					t.Error(err)
					return
				}
				if s := (Config{m.ID, 1}).String(); s != "racer1" && s != fmt.Sprintf("unknown-%d-1", m.ID) {
					t.Errorf("the racing family's configuration reads %q", s)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := (Config{m.ID, 1}).Build(1); err == nil {
		t.Fatal("the racing family is still registered")
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

func (c aliasCode) EncodeTo(_, data []byte, _ *ecc.Scratch) ([]byte, uint32) {
	out := make([]byte, 0, c.EncodedSize(len(data)))
	for k := 0; k < 2; k++ {
		out = append(out, data...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(data))
	}
	return out, 0
}

func (c aliasCode) DecodeTo(_, enc []byte, origLen int, _ *ecc.Scratch) ([]byte, uint32, ecc.Report, error) {
	if len(enc) < c.EncodedSize(origLen) {
		return nil, 0, ecc.Report{}, ecc.ErrTruncated
	}
	half := origLen + 4
	for k := 0; k < 2; k++ {
		cp := enc[k*half : k*half+origLen]
		if crc32.ChecksumIEEE(cp) == binary.LittleEndian.Uint32(enc[k*half+origLen:]) {
			return cp, 0, ecc.Report{DetectedBlocks: k, CorrectedBlocks: k}, nil
		}
	}
	return enc[:origLen], 0, ecc.Report{DetectedBlocks: 2}, ecc.ErrUncorrectable
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
