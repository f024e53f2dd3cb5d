package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	arc "repro"
	"repro/internal/datasets"
	"repro/internal/metrics"
)

func testARC(t *testing.T) *arc.ARC {
	t.Helper()
	a, err := arc.InitWithOptions(1, arc.Options{CacheDir: "-", TrainSampleBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return a
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := testARC(t)
	f := datasets.CESM(32, 64, 1)
	var buf bytes.Buffer
	info, err := Save(&buf, a, f.Data, f.Dims, Options{Compressor: "SZ-ABS", Bound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if info.Elements != f.N() || info.CompressedBytes == 0 {
		t.Fatalf("info %+v", info)
	}
	got, dims, linfo, err := Load(bytes.NewReader(buf.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != f.Dims[0] || dims[1] != f.Dims[1] {
		t.Fatalf("dims %v", dims)
	}
	if linfo.Compressor != "SZ-ABS" || linfo.Bound != 0.01 {
		t.Fatalf("loaded info %+v", linfo)
	}
	if n := metrics.CountIncorrect(f.Data, got, 0.01*(1+1e-9)); n != 0 {
		t.Fatalf("%d bound violations", n)
	}
}

func TestDefaults(t *testing.T) {
	a := testARC(t)
	f := datasets.CESM(16, 16, 2)
	var buf bytes.Buffer
	info, err := Save(&buf, a, f.Data, f.Dims, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Compressor != "SZ-ABS" || info.Bound != 1e-3 {
		t.Fatalf("defaults not applied: %+v", info)
	}
	if _, _, _, err := Load(bytes.NewReader(buf.Bytes()), 1); err != nil {
		t.Fatal(err)
	}
}

func TestAllCompressors(t *testing.T) {
	a := testARC(t)
	f := datasets.CESM(32, 32, 3)
	for _, cfg := range []struct {
		name  string
		bound float64
	}{
		{"SZ-ABS", 0.01}, {"SZ-PWREL", 0.01}, {"SZ-PSNR", 80},
		{"ZFP-ACC", 0.01}, {"ZFP-Rate", 16},
	} {
		var buf bytes.Buffer
		if _, err := Save(&buf, a, f.Data, f.Dims, Options{Compressor: cfg.name, Bound: cfg.bound}); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		got, _, info, err := Load(bytes.NewReader(buf.Bytes()), 1)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if info.Compressor != cfg.name {
			t.Fatalf("%s: loaded as %s", cfg.name, info.Compressor)
		}
		if len(got) != f.N() {
			t.Fatalf("%s: %d elements", cfg.name, len(got))
		}
	}
}

func TestCheckpointSurvivesSoftErrors(t *testing.T) {
	a := testARC(t)
	f := datasets.Isabel(4, 16, 16, 4)
	var buf bytes.Buffer
	if _, err := Save(&buf, a, f.Data, f.Dims, Options{
		Bound:      0.5,
		Resiliency: arc.WithErrorsPerMB(1),
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		mut := append([]byte(nil), buf.Bytes()...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		got, _, info, err := Load(bytes.NewReader(mut), 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range f.Data {
			if math.Abs(got[i]-f.Data[i]) > 0.5+1e-9 {
				t.Fatalf("trial %d: bound violated after repair", trial)
			}
		}
		_ = info
	}
}

// TestLoadManyChunks loads a checkpoint that spans several ARC chunks,
// which Load gathers chunk by chunk, and holds a stream cut short inside
// a later chunk to an error, not a shorter field.
func TestLoadManyChunks(t *testing.T) {
	a := testARC(t)
	f := datasets.NYX(16, 16, 16, 6)
	var buf bytes.Buffer
	info, err := Save(&buf, a, f.Data, f.Dims, Options{Compressor: "ZFP-ACC", Bound: 1e-6, ChunkBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if info.CompressedBytes < 3*(4<<10) {
		t.Fatalf("payload of %d bytes does not span three chunks", info.CompressedBytes)
	}
	got, _, linfo, err := Load(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if linfo.CompressedBytes != info.CompressedBytes {
		t.Fatalf("loaded %d compressed bytes, saved %d", linfo.CompressedBytes, info.CompressedBytes)
	}
	if n := metrics.CountIncorrect(f.Data, got, 1e-6*(1+1e-9)); n != 0 {
		t.Fatalf("%d bound violations", n)
	}
	if _, _, _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()*2/3]), 2); err == nil {
		t.Fatal("a stream cut inside a later chunk loaded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, _, err := Load(bytes.NewReader([]byte("not a checkpoint")), 1); err == nil {
		t.Fatal("garbage must fail")
	}
	// A valid ARC stream that is not a checkpoint payload.
	a := testARC(t)
	var buf bytes.Buffer
	w, err := a.NewWriter(&buf, arc.AnyMem, arc.AnyBW, arc.AnyECC, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = w.Write([]byte("random protected bytes"))
	_ = w.Close()
	if _, _, _, err := Load(bytes.NewReader(buf.Bytes()), 1); !errors.Is(err, ErrFormat) {
		t.Fatalf("want ErrFormat, got %v", err)
	}
}

func TestSaveRejectsUnknownCompressor(t *testing.T) {
	a := testARC(t)
	var buf bytes.Buffer
	if _, err := Save(&buf, a, []float64{1}, []int{1}, Options{Compressor: "LZMA"}); err == nil {
		t.Fatal("unknown compressor must fail")
	}
}

// TestLoadRejectsHeaderStreamDimsMismatch rewrites the dims in the
// checkpoint header of an otherwise valid payload — what a
// within-budget miscorrection or a spliced file amounts to — and
// re-protects it: the compressor stream still decodes, to its own
// shape, and Load must not hand that back under a header that says
// otherwise.
func TestLoadRejectsHeaderStreamDimsMismatch(t *testing.T) {
	a := testARC(t)
	f := datasets.CESM(16, 32, 3)
	for _, comp := range []string{"SZ-ABS", "ZFP-ACC"} {
		var saved bytes.Buffer
		if _, err := Save(&saved, a, f.Data, f.Dims, Options{Compressor: comp, Bound: 0.01}); err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(arc.NewReader(bytes.NewReader(saved.Bytes()), 1))
		if err != nil {
			t.Fatal(err)
		}
		// magic, version, name length, name, bound, ndims, then the dims.
		dimsOff := len(magic) + 2 + len(comp) + 8 + 1
		if got := binary.LittleEndian.Uint32(payload[dimsOff:]); int(got) != f.Dims[0] {
			t.Fatalf("%s: header layout moved: dims[0] reads %d", comp, got)
		}
		// Same element count, other shape: 16x32 -> 32x16.
		binary.LittleEndian.PutUint32(payload[dimsOff:], uint32(f.Dims[1]))
		binary.LittleEndian.PutUint32(payload[dimsOff+4:], uint32(f.Dims[0]))
		var forged bytes.Buffer
		w, err := a.NewWriter(&forged, arc.AnyMem, arc.AnyBW, arc.AnyECC, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Load(bytes.NewReader(forged.Bytes()), 1); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: header dims disagree with the stream: want ErrFormat, got %v", comp, err)
		}
	}
}

func TestSaveRejectsDimensionBeyondHeader(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("every int fits the header's uint32")
	}
	a := testARC(t)
	var buf bytes.Buffer
	big := int(int64(math.MaxUint32) + 1)
	_, err := Save(&buf, a, make([]float64, 4), []int{big}, Options{})
	if err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("want a header-width error, got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written for a rejected checkpoint", buf.Len())
	}
}

// TestSaveStreamUnchanged pins the bytes Save writes to the ones it
// wrote while it still copied header and compressed field into one
// buffer for a single Write (SHA-256 recorded at PR 18, 7bd7c67): the
// chunk writer cuts by byte count, so two Writes are the same stream,
// in one chunk or across many.
func TestSaveStreamUnchanged(t *testing.T) {
	a := testARC(t)
	cesm := datasets.CESM(32, 64, 1)
	nyx := datasets.NYX(16, 16, 16, 6)
	for _, c := range []struct {
		name string
		f    *datasets.Field
		opts Options
		want string
	}{
		{"SZ-ABS/one-chunk", cesm, Options{Compressor: "SZ-ABS", Bound: 0.01}, "315f5a7285eba0c677b3a4d79030b7545d94e9883810b8c0ce846fafe98f3b75"},
		{"ZFP-ACC/4KiB-chunks", nyx, Options{Compressor: "ZFP-ACC", Bound: 1e-6, ChunkBytes: 4 << 10}, "e19623c1b65154d94dade426b14c9cf9a9c1830071bb76c2a5f4926aed9717c5"},
		{"SZ-ABS/256B-chunks", cesm, Options{Compressor: "SZ-ABS", Bound: 0.01, ChunkBytes: 256}, "286f15dae03bd2e8ed627ae1f9a960569fe6e34ddc65a1c9ce9c68007584cef2"},
	} {
		// An error rate and no storage budget is the one request whose
		// answer does not depend on what training measured.
		c.opts.Resiliency = arc.WithErrorsPerMB(1)
		var buf bytes.Buffer
		info, err := Save(&buf, a, c.f.Data, c.f.Dims, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := info.Choice.Config.String(); got != "secded64" {
			t.Fatalf("%s: ARC chose %s, the recording is of secded64", c.name, got)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: stream sha256 = %s (%d bytes), want %s", c.name, got, buf.Len(), c.want)
		}
	}
}
