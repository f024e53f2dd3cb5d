package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"repro/internal/ecc"
)

// TestStreamModel runs random operation sequences against the chunk
// stream and a bytes.Buffer holding what was written, the trivially
// correct model of it. The writer takes Writes and ReadFroms of random
// sizes, then Close, after which writing fails. Sometimes a damage step
// bursts a random stretch of the encoded stream. The reader takes Reads
// of random sizes and WriteTo; a RangeReader over the same bytes takes
// random ReadRanges. Every read must return the model's bytes at its
// position, or an error after a prefix of them — and an error only if
// the stream was damaged.
func TestStreamModel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x30DE1))
	configs := []Config{
		{ecc.MethodSECDED, 64}, {ecc.MethodReedSolomon, 15},
		{ecc.MethodHamming, 64}, {ecc.MethodParity, 8},
	}
	for seq := 0; seq < 60; seq++ {
		cfg := configs[rng.Intn(len(configs))]
		pl := 1 + 3*(seq%2)
		opts := StreamOptions{ChunkSize: 64 + rng.Intn(4000), Pipeline: pl, Indexed: rng.Intn(2) == 0}
		var model, enc bytes.Buffer
		cw, err := streamTestEngine(1).NewChunkWriterChoice(&enc, Choice{Config: cfg, Threads: 1}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for op := rng.Intn(8); op >= 0; op-- {
			p := make([]byte, rng.Intn(5000))
			rng.Read(p)
			model.Write(p)
			if rng.Intn(2) == 0 {
				_, err = cw.Write(p)
			} else {
				_, err = cw.ReadFrom(iotest.HalfReader(bytes.NewReader(p)))
			}
			if err != nil {
				t.Fatalf("seq %d: write: %v", seq, err)
			}
		}
		if err := cw.Close(); err != nil {
			t.Fatalf("seq %d: close: %v", seq, err)
		}
		if _, err := cw.Write([]byte{1}); err == nil {
			t.Fatalf("seq %d: write after Close succeeded", seq)
		}

		stream := enc.Bytes()
		damaged := len(stream) > 0 && rng.Intn(3) == 0
		if damaged {
			n := 1 + rng.Intn(64)
			at := rng.Intn(len(stream))
			for i := at; i < min(at+n, len(stream)); i++ {
				stream[i] ^= byte(1 + rng.Intn(255))
			}
		}
		want := model.Bytes()
		check := func(what string, got []byte, at int64, err error) {
			t.Helper()
			if !bytes.Equal(got, want[at:at+int64(len(got))]) {
				t.Fatalf("seq %d (%s, pipeline %d, damaged %v): %s returned wrong bytes at %d (err %v)",
					seq, cfg, pl, damaged, what, at, err)
			}
			if err != nil && !damaged {
				t.Fatalf("seq %d (%s, pipeline %d): %s failed on an undamaged stream: %v", seq, cfg, pl, what, err)
			}
		}

		cr := NewChunkReaderWith(bytes.NewReader(stream), 1, StreamOptions{Pipeline: pl})
		var got []byte
		for {
			if rng.Intn(4) == 0 {
				var rest bytes.Buffer
				_, err = cr.WriteTo(&rest)
				got = append(got, rest.Bytes()...)
				break
			}
			buf := make([]byte, 1+rng.Intn(4000))
			n, rerr := cr.Read(buf)
			got = append(got, buf[:n]...)
			if rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				break
			}
		}
		check("sequential read", got, 0, err)
		if err == nil && len(got) != len(want) {
			t.Fatalf("seq %d: read %d bytes of %d without an error", seq, len(got), len(want))
		}
		if err := cr.Close(); err != nil {
			t.Fatal(err)
		}

		rr, err := OpenRangeReader(bytes.NewReader(stream), int64(len(stream)), RangeOptions{Pipeline: pl})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			first := rng.Int63n(int64(len(want)) + 1)
			n := rng.Int63n(int64(len(want)) - first + 1)
			dst := make([]byte, n)
			m, _, err := rr.ReadRange(dst, first, n)
			if errors.Is(err, io.EOF) {
				err = nil
			}
			check("range read", dst[:m], first, err)
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
