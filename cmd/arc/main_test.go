package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	arc "repro"
)

func TestMain(m *testing.M) {
	// Keep the training cache out of the user's real cache directory.
	dir, err := os.MkdirTemp("", "arc-cmd-test")
	if err != nil {
		panic(err)
	}
	if err := os.Setenv("ARC_CACHE_DIR", dir); err != nil {
		panic(err)
	}
	code := m.Run()
	_ = os.RemoveAll(dir) // best-effort temp-dir cleanup
	os.Exit(code)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	enc := filepath.Join(dir, "enc.arc")
	out := filepath.Join(dir, "out.bin")
	data := bytes.Repeat([]byte("scientific checkpoint data "), 2000)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEncode([]string{"-in", in, "-out", enc, "-mem", "0.2", "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecode([]string{"-in", enc, "-out", out, "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if err := cmdInspect([]string{"-in", enc}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDefaultIsIndexed holds a plain `arc encode` to an indexed
// stream, the form `arc decode -range` seeks in.
func TestEncodeDefaultIsIndexed(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	enc := filepath.Join(dir, "enc.arc")
	if err := os.WriteFile(in, bytes.Repeat([]byte("indexed "), 5000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEncode([]string{"-in", in, "-out", enc, "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	r, err := arc.OpenFileReaderAt(enc, arc.RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Indexed() {
		t.Fatal("default encode wrote a stream without a footer index")
	}
}

func TestDecodeRepairsDamage(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	enc := filepath.Join(dir, "enc.arc")
	out := filepath.Join(dir, "out.bin")
	data := bytes.Repeat([]byte{0xAB, 0xCD}, 20000)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEncode([]string{"-in", in, "-out", enc, "-errors-per-mb", "1", "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(enc)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x08
	if err := os.WriteFile(enc, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecode([]string{"-in", enc, "-out", out, "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("damage not repaired")
	}
}

func TestEncodeECCFilterFlag(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	enc := filepath.Join(dir, "enc.arc")
	if err := os.WriteFile(in, make([]byte, 10000), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parity", "hamming", "secded", "rs"} {
		if err := cmdEncode([]string{"-in", in, "-out", enc, "-ecc", name, "-threads", "1"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestMissingArgs(t *testing.T) {
	if err := cmdEncode([]string{"-in", "x"}); err == nil {
		t.Fatal("encode without -out must fail")
	}
	if err := cmdDecode([]string{"-out", "x"}); err == nil {
		t.Fatal("decode without -in must fail")
	}
	if err := cmdInspect(nil); err == nil {
		t.Fatal("inspect without -in must fail")
	}
}

func TestParseMethod(t *testing.T) {
	for _, good := range []string{"parity", "hamming", "secded", "rs", "reed-solomon", "reedsolomon"} {
		if _, err := parseMethod(good); err != nil {
			t.Fatalf("%s: %v", good, err)
		}
	}
	if _, err := parseMethod("bch"); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestUncorrectableDamageReported(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	enc := filepath.Join(dir, "enc.arc")
	out := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(in, make([]byte, 5000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEncode([]string{"-in", in, "-out", enc, "-ecc", "parity", "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	buf, _ := os.ReadFile(enc)
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(enc, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdDecode([]string{"-in", enc, "-out", out, "-threads", "1"})
	if err == nil {
		t.Fatal("parity-detected damage must surface as an error")
	}
	// Best-effort data must still have been written.
	if _, serr := os.Stat(out); serr != nil {
		t.Fatal("best-effort output missing")
	}
}

func TestVerifyCleanAndDamaged(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	enc := filepath.Join(dir, "enc.arc")
	if err := os.WriteFile(in, make([]byte, 20000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEncode([]string{"-in", in, "-out", enc, "-errors-per-mb", "1", "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-in", enc, "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	// Damage within repair ability: verify succeeds but reports it.
	buf, _ := os.ReadFile(enc)
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(enc, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-in", enc, "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-in", "/nonexistent"}); err == nil {
		t.Fatal("missing file must fail")
	}
	if err := cmdVerify(nil); err == nil {
		t.Fatal("missing -in must fail")
	}
}

func TestEncodeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	enc := filepath.Join(dir, "enc.arc")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	data := bytes.Repeat([]byte("profile me "), 4000)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdEncode([]string{"-in", in, "-out", enc, "-threads", "1",
		"-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestInspectReportsHeaderBytesOfEachVersion runs `arc inspect` on a
// golden stream of version-1 chunk headers (102 bytes each, not the
// 114 a version-2 header takes): the total it prints must be the file's
// size.
func TestInspectReportsHeaderBytesOfEachVersion(t *testing.T) {
	const golden = "../../internal/core/testdata/stream_parity8_3chunks.arc"
	fi, err := os.Stat(golden)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return cmdInspect([]string{"-in", golden}) })
	want := fmt.Sprintf("encoded size:  %d bytes (3120 payload + 306 header)\n", fi.Size())
	if !strings.Contains(out, want) {
		t.Fatalf("inspect printed\n%s\nwant a line %q", out, want)
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // the pipe closes below; a read error leaves the output short and the test fails on it
		got <- b
	}()
	ferr := fn()
	os.Stdout = stdout
	_ = w.Close() // ends the reader
	out := string(<-got)
	_ = r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}
