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
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestSaveLoadSlabField: a field above pressio's cut threshold (2^18
// values) is saved as a slab container inside the same checkpoint
// format, and loads back whole with its bound kept across the seams.
func TestSaveLoadSlabField(t *testing.T) {
	a := testARC(t)
	f := datasets.Isabel(40, 96, 96, 9) // 368 640 values: slabs of 28 and 12 planes
	for _, name := range []string{"SZ-ABS", "ZFP-ACC"} {
		var buf bytes.Buffer
		if _, err := Save(&buf, a, f.Data, f.Dims, Options{Compressor: name, Bound: 0.01}); err != nil {
			t.Fatal(err)
		}
		got, dims, info, err := Load(bytes.NewReader(buf.Bytes()), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Elements != f.N() || dims[0] != f.Dims[0] || dims[2] != f.Dims[2] {
			t.Fatalf("%s: dims %v, info %+v", name, dims, info)
		}
		if n := metrics.CountIncorrect(f.Data, got, 0.01*(1+1e-9)); n != 0 {
			t.Fatalf("%s: %d bound violations", name, n)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, _, err := Load(bytes.NewReader([]byte("not a checkpoint")), 1); err == nil {
		t.Fatal("garbage must fail")
	}
	// A valid ARC stream that is not a checkpoint payload.
	a := testARC(t)
	var buf bytes.Buffer
	w, err := a.NewWriterWith(&buf, arc.AnyMem, arc.AnyBW, arc.AnyECC, arc.StreamOptions{})
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
		w, err := a.NewWriterWith(&forged, arc.AnyMem, arc.AnyBW, arc.AnyECC, arc.StreamOptions{})
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
// buffer for a single Write: the chunk writer cuts by byte count, so two
// Writes are the same stream, in one chunk or across many. The hashes
// are of chunk header version 2, which carries the chunk digest; the
// payloads are byte-for-byte those of the version-1 recording.
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
		{"SZ-ABS/one-chunk", cesm, Options{Compressor: "SZ-ABS", Bound: 0.01}, "c8a47e53da91033c13c71a68519f4c2555f4de04020604032a2f2b48ba16942c"},
		{"ZFP-ACC/4KiB-chunks", nyx, Options{Compressor: "ZFP-ACC", Bound: 1e-6, ChunkBytes: 4 << 10}, "8ff9bd497a0d473bfe1486106b8be0b789e4c39bc8ad320862b801ec3573cc9a"},
		{"SZ-ABS/256B-chunks", cesm, Options{Compressor: "SZ-ABS", Bound: 0.01, ChunkBytes: 256}, "9bf6bb30366f6738d107f9b97873f770941d0a8d1caf4880dea6ad1290b23fbd"},
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

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestSaveFailingWriterLeaksNothing: when the destination fails, Save
// and ArchiveWriter.WriteTo return its error and leave no chunk-writer
// goroutine (emitter or encoder) behind.
func TestSaveFailingWriterLeaksNothing(t *testing.T) {
	a, err := arc.InitWithOptions(4, arc.Options{CacheDir: "-", TrainSampleBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	f := datasets.CESM(256, 512, 1)
	opts := Options{ChunkBytes: 1 << 10}
	aw := NewArchiveWriter()
	if err := aw.Add("f", f.Data, f.Dims, opts); err != nil {
		t.Fatal(err)
	}
	// One good save first, so that whatever the engine starts for
	// training is counted in the baseline.
	if _, err := Save(io.Discard, a, f.Data, f.Dims, opts); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Save(failingWriter{}, a, f.Data, f.Dims, opts); err == nil {
			t.Fatal("Save to a failing writer succeeded")
		}
		if err := aw.WriteTo(failingWriter{}, a, opts.Mem, opts.BW, opts.Resiliency, opts.ChunkBytes); err == nil {
			t.Fatal("WriteTo to a failing writer succeeded")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines left behind", n-base)
	}
}
