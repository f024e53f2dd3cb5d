package core

// Golden stream-format regression: small encoded streams are committed
// under testdata/ and must decode, byte-for-byte, forever. This guards
// the chunk container layout against silent drift from pipeline
// changes or future container edits — an ARC stream written today is a
// storage artifact that tomorrow's reader has to recover.
//
// Files written by an older chunk header version stay, decode-only:
// today's writer no longer emits them, and they are never regenerated.
// To regenerate the current version's files after an *intentional*
// format change (which must also bump containerVersion, and add the old
// files' successors beside them), run:
//
//	ARC_UPDATE_GOLDEN=1 go test -run TestGoldenStreams ./internal/core/
//
// and commit the new files plus updated digests.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ecc"
)

// goldenStreams pins each committed stream to its chunk header
// version, configuration, geometry, and encoded-byte digest (sha256
// prefix, as in golden_test.go).
var goldenStreams = []struct {
	file      string
	version   byte
	config    Config
	chunkSize int
	payload   int
	digest    string
}{
	{"stream_parity8_3chunks.arc", 1, Config{ecc.MethodParity, 8}, 1024, 3 * 1024, "efc41d76beb8a951"},
	{"stream_secded64_partial.arc", 1, Config{ecc.MethodSECDED, 64}, 1024, 2*1024 + 300, "1f775fdb7e8cd697"},
	{"stream_rs-m15_4chunks.arc", 1, Config{ecc.MethodReedSolomon, 15}, 2048, 4 * 2048, "c491459152b003ab"},
	{"stream_ilsecded64_2chunks.arc", 1, Config{ecc.MethodInterleavedSECDED, 64}, 1024, 2*1024 + 1, "4a59b9151df208e8"},
	{"stream_secded64_partial_v2.arc", 2, Config{ecc.MethodSECDED, 64}, 1024, 2*1024 + 300, "fe43c3a3b0ac1b53"},
	{"stream_rs-m15_4chunks_v2.arc", 2, Config{ecc.MethodReedSolomon, 15}, 2048, 4 * 2048, "6d77c325caac1de1"},
}

// goldenStreamPayload regenerates the deterministic plaintext each
// golden stream encodes.
func goldenStreamPayload(n int) []byte {
	rng := rand.New(rand.NewSource(0x60D5))
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	return buf
}

func goldenStreamEncode(t *testing.T, cfg Config, chunkSize int, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := streamTestEngine(1).NewChunkWriterChoice(&buf,
		Choice{Config: cfg, Threads: 1}, StreamOptions{ChunkSize: chunkSize, Pipeline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenStreams(t *testing.T) {
	update := os.Getenv("ARC_UPDATE_GOLDEN") != ""
	for _, g := range goldenStreams {
		path := filepath.Join("testdata", g.file)
		payload := goldenStreamPayload(g.payload)
		current := g.version == containerVersion
		if update && current {
			enc := goldenStreamEncode(t, g.config, g.chunkSize, payload)
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(enc)
			t.Logf("%s: regenerated, digest %s", g.file, hex.EncodeToString(h[:8]))
			continue
		}
		enc, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden stream (run with ARC_UPDATE_GOLDEN=1 to generate): %v", g.file, err)
		}
		// The committed artifact itself must be pristine.
		h := sha256.Sum256(enc)
		if got := hex.EncodeToString(h[:8]); got != g.digest {
			t.Fatalf("%s: golden file digest %s != pinned %s (testdata corrupted or format changed)", g.file, got, g.digest)
		}
		if hdr, err := unmarshalHeader(enc); err != nil || hdr.Version != g.version {
			t.Fatalf("%s: first chunk header version %d (%v), want %d", g.file, hdr.Version, err, g.version)
		}
		// Today's bytes decode forever — through both sequential read
		// paths and the range reader's header scan.
		wantChunks := (g.payload + g.chunkSize - 1) / g.chunkSize
		for _, pl := range []int{1, 4} {
			cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: pl})
			got, err := io.ReadAll(cr)
			if err != nil {
				t.Fatalf("%s/pipeline=%d: golden stream no longer decodes: %v", g.file, pl, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s/pipeline=%d: golden stream decodes to wrong payload", g.file, pl)
			}
			if cr.Report().Chunks != wantChunks {
				t.Fatalf("%s/pipeline=%d: %d chunks, want %d", g.file, pl, cr.Report().Chunks, wantChunks)
			}
		}
		rr, err := OpenRangeReader(bytes.NewReader(enc), int64(len(enc)), RangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, g.payload)
		if n, _, err := rr.ReadRange(got, 0, int64(g.payload)); err != nil || n != g.payload || !bytes.Equal(got, payload) {
			t.Fatalf("%s: range read of %d bytes: %d, %v", g.file, g.payload, n, err)
		}
		if rr.Chunks() != wantChunks {
			t.Fatalf("%s: range reader found %d chunks, want %d", g.file, rr.Chunks(), wantChunks)
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
		// And today's writer still emits exactly the current version's
		// bytes (pins the pipelined encoder to the committed format).
		for _, pl := range []int{1, 4} {
			if !current {
				break
			}
			reenc := encodeStream(t, Choice{Config: g.config, Threads: 1},
				StreamOptions{ChunkSize: g.chunkSize, Pipeline: pl}, payload)
			if !bytes.Equal(reenc, enc) {
				t.Fatalf("%s/pipeline=%d: writer output drifted from the committed stream\n"+
					"If this change is intentional, bump containerVersion and regenerate with ARC_UPDATE_GOLDEN=1.",
					g.file, pl)
			}
		}
		// Header metadata stays inspectable without decode.
		infos, err := InspectStream(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: inspect: %v", g.file, err)
		}
		if len(infos) != wantChunks {
			t.Fatalf("%s: inspect found %d chunks, want %d", g.file, len(infos), wantChunks)
		}
		for _, ci := range infos {
			if ci.Config != g.config {
				t.Fatalf("%s: chunk config %s != %s", g.file, ci.Config, g.config)
			}
		}
	}
}
