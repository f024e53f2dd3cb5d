package arc

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestEncodeDecodeFile(t *testing.T) {
	a := initTest(t, 1)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bin")
	enc := filepath.Join(dir, "enc.arc")
	dst := filepath.Join(dir, "dst.bin")
	data := make([]byte, 500<<10)
	rand.New(rand.NewSource(110)).Read(data)
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	choice, written, err := a.EncodeFileWith(src, enc, 0.2, AnyBW, AnyECC, StreamOptions{ChunkSize: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Overhead > 0.2 {
		t.Fatalf("choice overhead %.3f", choice.Overhead)
	}
	fi, err := os.Stat(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != written {
		t.Fatalf("reported %d bytes, file has %d", written, fi.Size())
	}
	rep, err := DecodeFileWith(enc, dst, 1, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks != 4 {
		t.Fatalf("decoded %d chunks, want 4", rep.Chunks)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file round trip mismatch")
	}
}

func TestDecodeFileRepairs(t *testing.T) {
	a := initTest(t, 1)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bin")
	enc := filepath.Join(dir, "enc.arc")
	dst := filepath.Join(dir, "dst.bin")
	data := make([]byte, 100<<10)
	rand.New(rand.NewSource(111)).Read(data)
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.EncodeFileWith(src, enc, AnyMem, AnyBW, WithErrorsPerMB(1), StreamOptions{ChunkSize: 32 << 10}); err != nil {
		t.Fatal(err)
	}
	// Flip a few bits on disk.
	buf, err := os.ReadFile(enc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(112))
	for i := 0; i < 4; i++ {
		bit := rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 0x80 >> (bit % 8)
	}
	if err := os.WriteFile(enc, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := DecodeFileWith(enc, dst, 1, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorrectedBlocks == 0 {
		t.Fatal("no repairs recorded")
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("repaired file mismatch")
	}
}

func TestEncodeFileMissingSource(t *testing.T) {
	a := initTest(t, 1)
	if _, _, err := a.EncodeFileWith("/nonexistent/file", filepath.Join(t.TempDir(), "x"), AnyMem, AnyBW, AnyECC, StreamOptions{}); err == nil {
		t.Fatal("missing source must fail")
	}
	if _, err := DecodeFileWith("/nonexistent/file", filepath.Join(t.TempDir(), "y"), 1, StreamOptions{}); err == nil {
		t.Fatal("missing encoded file must fail")
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	// The engine must be safe for concurrent Encode/Decode.
	a := initTest(t, 2)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 20<<10)
			rng.Read(data)
			for i := 0; i < 5; i++ {
				enc, err := a.Encode(data, 0.3, AnyBW, AnyECC)
				if err != nil {
					done <- err
					return
				}
				dec, err := a.Decode(enc.Encoded)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(dec.Data, data) {
					done <- os.ErrInvalid
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
