package arc

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestFileReaderAtRoundTrip(t *testing.T) {
	a := initTest(t, 1)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bin")
	enc := filepath.Join(dir, "enc.arc")
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(210)).Read(data)
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// EncodeFileWith writes container v2, so the reader opens indexed.
	if _, _, err := a.EncodeFileWith(src, enc, 0.3, AnyBW, AnyECC, StreamOptions{ChunkSize: 64 << 10}); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileReaderAt(enc, RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Indexed() {
		t.Fatal("EncodeFileWith output opened without a v2 index")
	}
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size() = %d, want %d", r.Size(), len(data))
	}
	if r.Chunks() != 5 {
		t.Fatalf("Chunks() = %d, want 5", r.Chunks())
	}

	// Ranged reads against the original, including cache-warm repeats.
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 20; trial++ {
		first := rng.Int63n(int64(len(data)))
		n := rng.Int63n(100 << 10)
		dst := make([]byte, n)
		got, _, err := r.ReadRange(dst, first, n)
		want := int64(len(data)) - first
		if n < want {
			want = n
		}
		if first+n > int64(len(data)) {
			if err != io.EOF {
				t.Fatalf("range past end: %v, want io.EOF", err)
			}
		} else if err != nil {
			t.Fatalf("ReadRange(%d, %d): %v", first, n, err)
		}
		if int64(got) != want || !bytes.Equal(dst[:got], data[first:first+want]) {
			t.Fatalf("range [%d, +%d) mismatch (%d bytes)", first, n, got)
		}
	}

	// io.ReaderAt contract via the stdlib's own consumer.
	section := io.NewSectionReader(r, 1000, 5000)
	got, err := io.ReadAll(section)
	if err != nil || !bytes.Equal(got, data[1000:6000]) {
		t.Fatalf("SectionReader read: %v", err)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("ReadAt after Close succeeded")
	}
}

func TestOpenFileReaderAtMissing(t *testing.T) {
	if _, err := OpenFileReaderAt("/nonexistent/arc", RangeOptions{}); err == nil {
		t.Fatal("missing archive must fail to open")
	}
}
