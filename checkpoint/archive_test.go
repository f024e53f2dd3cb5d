package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"testing"

	arc "repro"
	"repro/internal/datasets"
	"repro/internal/metrics"
)

func TestArchiveRoundTrip(t *testing.T) {
	a := testARC(t)
	cesm := datasets.CESM(24, 48, 10)
	isabel := datasets.Isabel(4, 12, 12, 11)

	aw := NewArchiveWriter()
	if err := aw.Add("cldlow", cesm.Data, cesm.Dims, Options{Compressor: "SZ-ABS", Bound: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Add("pressure", isabel.Data, isabel.Dims, Options{Compressor: "ZFP-ACC", Bound: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := aw.Fields(); len(got) != 2 || got[0] != "cldlow" || got[1] != "pressure" {
		t.Fatalf("fields %v", got)
	}

	var buf bytes.Buffer
	if err := aw.WriteTo(&buf, a, arc.AnyMem, arc.AnyBW, arc.WithErrorsPerMB(1), 0); err != nil {
		t.Fatal(err)
	}
	ar, err := LoadArchive(bytes.NewReader(buf.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Fields) != 2 {
		t.Fatalf("loaded %d fields", len(ar.Fields))
	}
	cf := ar.Get("cldlow")
	if cf == nil || cf.Compressor != "SZ-ABS" || cf.Bound != 0.01 {
		t.Fatalf("cldlow metadata %+v", cf)
	}
	if i := metrics.VerifyBound(cesm.Data, cf.Data, metrics.BoundAbs, 0.01); i != -1 {
		t.Fatalf("cldlow bound violated at %d", i)
	}
	pf := ar.Get("pressure")
	if pf == nil || pf.Dims[0] != 4 {
		t.Fatalf("pressure metadata %+v", pf)
	}
	if i := metrics.VerifyBound(isabel.Data, pf.Data, metrics.BoundAbs, 0.5); i != -1 {
		t.Fatalf("pressure bound violated at %d", i)
	}
	if ar.Get("missing") != nil {
		t.Fatal("absent field must return nil")
	}
}

func TestArchiveSurvivesFlips(t *testing.T) {
	a := testARC(t)
	cesm := datasets.CESM(16, 16, 12)
	aw := NewArchiveWriter()
	if err := aw.Add("f", cesm.Data, cesm.Dims, Options{Bound: 0.01}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := aw.WriteTo(&buf, a, arc.AnyMem, arc.AnyBW, arc.WithErrorsPerMB(1), 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		mut := append([]byte(nil), buf.Bytes()...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		ar, err := LoadArchive(bytes.NewReader(mut), 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if i := metrics.VerifyBound(cesm.Data, ar.Get("f").Data, metrics.BoundAbs, 0.01); i != -1 {
			t.Fatalf("trial %d: bound violated after repair", trial)
		}
	}
}

func TestArchiveValidation(t *testing.T) {
	aw := NewArchiveWriter()
	if err := aw.Add("", []float64{1}, []int{1}, Options{}); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := aw.Add("x", []float64{1}, []int{1}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Add("x", []float64{1}, []int{1}, Options{}); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if err := aw.Add("y", []float64{1}, []int{2}, Options{}); err == nil {
		t.Fatal("dims mismatch must fail")
	}
	if err := aw.Add("z", []float64{1}, []int{1}, Options{Compressor: "LZ4"}); err == nil {
		t.Fatal("unknown compressor must fail")
	}
	if _, err := LoadArchive(bytes.NewReader([]byte("garbage")), 1); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestArchiveNotACheckpointStream(t *testing.T) {
	// A single-field checkpoint is not an archive and vice versa.
	a := testARC(t)
	f := datasets.CESM(8, 8, 14)
	var single bytes.Buffer
	if _, err := Save(&single, a, f.Data, f.Dims, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArchive(bytes.NewReader(single.Bytes()), 1); err == nil {
		t.Fatal("single checkpoint must not load as archive")
	}
}

// TestLoadArchiveRejectsHeaderStreamDimsMismatch is
// TestLoadRejectsHeaderStreamDimsMismatch for an archive field: its
// header's dims swapped (16x32 -> 32x16) and the archive protected
// again, LoadArchive must refuse the field rather than load it in the
// compressed stream's shape.
func TestLoadArchiveRejectsHeaderStreamDimsMismatch(t *testing.T) {
	a := testARC(t)
	f := datasets.CESM(16, 32, 3)
	for _, comp := range []string{"SZ-ABS", "ZFP-ACC"} {
		aw := NewArchiveWriter()
		if err := aw.Add("f", f.Data, f.Dims, Options{Compressor: comp, Bound: 0.01}); err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := aw.WriteTo(&saved, a, arc.AnyMem, arc.AnyBW, arc.AnyECC, 0); err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(arc.NewReader(bytes.NewReader(saved.Bytes()), 1))
		if err != nil {
			t.Fatal(err)
		}
		// magic, version, field count, name length, name, compressor
		// length, compressor, bound, ndims, then the dims.
		dimsOff := len(archiveMagic) + 1 + 4 + 1 + len("f") + 1 + len(comp) + 8 + 1
		if got := binary.LittleEndian.Uint32(payload[dimsOff:]); int(got) != f.Dims[0] {
			t.Fatalf("%s: header layout moved: dims[0] reads %d", comp, got)
		}
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
		if _, err := LoadArchive(bytes.NewReader(forged.Bytes()), 1); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: header dims disagree with the stream: want ErrFormat, got %v", comp, err)
		}
	}
}

// TestArchiveStreamUnchanged pins the bytes ArchiveWriter.WriteTo
// writes, recorded while it still joined the whole archive into one
// buffer for a single Write: the chunk writer cuts by byte count, so
// writing the archive piece by piece must be the same stream, in one
// chunk or across many.
func TestArchiveStreamUnchanged(t *testing.T) {
	a := testARC(t)
	cesm := datasets.CESM(32, 64, 1)
	nyx := datasets.NYX(16, 16, 16, 6)
	aw := NewArchiveWriter()
	if err := aw.Add("cesm", cesm.Data, cesm.Dims, Options{Compressor: "SZ-ABS", Bound: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Add("nyx", nyx.Data, nyx.Dims, Options{Compressor: "ZFP-ACC", Bound: 1e-6}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		chunk int
		size  int
		want  string
	}{
		{0, 25492, "adc9046a8676d2e2b66e845ca311f447d5710d18891acac42acb69dae0e42eab"},
		{4 << 10, 26062, "223200f8b5a5bbd1728a4bc1f2f9e3b7cca0353cf8cbd085ecfab1294af0a34b"},
		{256, 35524, "e0814b08aab8047a5fdbfb0665982e40575ff5882e52afd160b27df4836789c2"},
	} {
		// An error rate and no storage budget is the one request whose
		// answer does not depend on what training measured.
		var buf bytes.Buffer
		if err := aw.WriteTo(&buf, a, arc.AnyMem, arc.AnyBW, arc.WithErrorsPerMB(1), c.chunk); err != nil {
			t.Fatalf("chunk %d: %v", c.chunk, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want || buf.Len() != c.size {
			t.Errorf("chunk %d: stream sha256 = %s (%d bytes), want %s (%d bytes)", c.chunk, got, buf.Len(), c.want, c.size)
		}
	}
}
