package huffman

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// randFreqs produces a frequency table with a random subset of used
// symbols, covering degenerate (1-symbol) through dense alphabets.
func randFreqs(rng *rand.Rand, n, used int) []int64 {
	freqs := make([]int64, n)
	for i := 0; i < used; i++ {
		freqs[rng.Intn(n)] += int64(rng.Intn(1000) + 1)
	}
	return freqs
}

// TestBuildIntoMatchesBuild pins the reuse contract: a codec rebuilt in
// place over a sequence of unrelated alphabets must emit bit-identical
// streams to a fresh Build, and its decode tables (including the LUT,
// which relies on being cleared between builds) must decode them.
func TestBuildIntoMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused := new(Codec)
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(2000) + 1
		used := rng.Intn(n) + 1
		freqs := randFreqs(rng, n, used)
		fresh, ferr := Build(freqs)
		got, gerr := BuildInto(reused, freqs)
		if (ferr == nil) != (gerr == nil) {
			t.Fatalf("trial %d: Build err=%v, BuildInto err=%v", trial, ferr, gerr)
		}
		if ferr != nil {
			continue
		}
		if got != reused {
			t.Fatalf("trial %d: BuildInto returned a different codec", trial)
		}
		var fw, gw bitio.Writer
		fresh.WriteTable(&fw)
		got.WriteTable(&gw)
		syms := make([]int, 0, 256)
		for s, f := range freqs {
			if f > 0 {
				for k := 0; k < 3; k++ {
					syms = append(syms, s)
				}
			}
		}
		for _, s := range syms {
			fresh.Encode(&fw, s)
			got.Encode(&gw, s)
		}
		if !bytes.Equal(fw.Bytes(), gw.Bytes()) {
			t.Fatalf("trial %d: reused codec emitted a different stream", trial)
		}
		// Decode with the reused codec's tables.
		r := bitio.NewReader(gw.Bytes())
		if _, err := ReadTableMax(r, n); err != nil {
			t.Fatalf("trial %d: table: %v", trial, err)
		}
		for i, want := range syms {
			s, err := got.Decode(r)
			if err != nil {
				t.Fatalf("trial %d: symbol %d: %v", trial, i, err)
			}
			if s != want {
				t.Fatalf("trial %d: symbol %d: got %d want %d", trial, i, s, want)
			}
		}
	}
}

// TestReadTableMaxIntoMatchesReadTableMax runs the same reuse check on
// the decode side: a codec reloaded in place from serialized tables of
// varying shapes must decode exactly like a freshly allocated one.
func TestReadTableMaxIntoMatchesReadTableMax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reused := new(Codec)
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(2000) + 1
		used := rng.Intn(n) + 1
		freqs := randFreqs(rng, n, used)
		enc, err := Build(freqs)
		if err != nil {
			continue
		}
		var w bitio.Writer
		enc.WriteTable(&w)
		var syms []int
		for s, f := range freqs {
			if f > 0 {
				syms = append(syms, s)
				enc.Encode(&w, s)
			}
		}
		stream := w.Bytes()

		fr := bitio.NewReader(stream)
		fresh, err := ReadTableMax(fr, n)
		if err != nil {
			t.Fatalf("trial %d: fresh table: %v", trial, err)
		}
		rr := bitio.NewReader(stream)
		got, err := ReadTableMaxInto(reused, rr, n)
		if err != nil {
			t.Fatalf("trial %d: reused table: %v", trial, err)
		}
		if got != reused {
			t.Fatalf("trial %d: ReadTableMaxInto returned a different codec", trial)
		}
		for i, want := range syms {
			fs, ferr := fresh.Decode(fr)
			gs, gerr := got.Decode(rr)
			if ferr != nil || gerr != nil {
				t.Fatalf("trial %d: symbol %d: fresh err=%v reused err=%v", trial, i, ferr, gerr)
			}
			if fs != want || gs != want {
				t.Fatalf("trial %d: symbol %d: fresh=%d reused=%d want %d", trial, i, fs, gs, want)
			}
		}
	}
}

// TestReadTableMaxIntoAfterError reuses a codec whose previous load
// failed partway (tables half-written), which must not poison the next
// load.
func TestReadTableMaxIntoAfterError(t *testing.T) {
	freqs := []int64{5, 0, 3, 2, 0, 1}
	enc, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var w bitio.Writer
	enc.WriteTable(&w)
	enc.Encode(&w, 0)
	stream := w.Bytes()

	reused := new(Codec)
	// Truncated table: fails after the header parse touched the codec.
	if _, err := ReadTableMaxInto(reused, bitio.NewReader(stream[:5]), len(freqs)); err == nil {
		t.Fatal("truncated table unexpectedly accepted")
	}
	r := bitio.NewReader(stream)
	c, err := ReadTableMaxInto(reused, r, len(freqs))
	if err != nil {
		t.Fatalf("reload after error: %v", err)
	}
	s, err := c.Decode(r)
	if err != nil || s != 0 {
		t.Fatalf("decode after reload: sym=%d err=%v", s, err)
	}
}

// TestReusedCodecHasNoStaleMultiEntries rebuilds one codec from a large
// table that fills every multi-symbol entry, with two symbols wherever
// two fit, down to tables that leave most windows without a code — a
// single one-bit code, an alphabet too large for a second symbol —
// through both BuildInto and ReadTableMaxInto. An entry surviving from
// the table before would decode a window the new code does not have
// (the bug class buildLUT's clear guards against), so the reused table
// must equal a fresh codec's entry for entry, and DecodeAll over noise
// must agree with the Decode loop.
func TestReusedCodecHasNoStaleMultiEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dense := make([]int64, 256)
	for i := range dense {
		dense[i] = int64(rng.Intn(50)) + 1
	}
	single := make([]int64, 300)
	single[17] = 4
	wide := make([]int64, 70000)
	wide[3], wide[69999] = 9, 1
	noise := make([]byte, 4096)
	rng.Read(noise)

	reused := new(Codec)
	for step, freqs := range [][]int64{dense, single, dense, wide, dense, {1, 1, 1}} {
		fresh, err := Build(freqs)
		if err != nil {
			t.Fatal(err)
		}
		var w bitio.Writer
		fresh.WriteTable(&w)
		for _, via := range []string{"BuildInto", "ReadTableMaxInto"} {
			var got *Codec
			if via == "BuildInto" {
				got, err = BuildInto(reused, freqs)
			} else {
				got, err = ReadTableMaxInto(reused, bitio.NewReader(w.Bytes()), len(freqs))
			}
			if err != nil {
				t.Fatalf("step %d %s: %v", step, via, err)
			}
			for i := range fresh.multi {
				if got.multi[i] != fresh.multi[i] {
					t.Fatalf("step %d %s: multi[%#x] = %#x, a fresh codec has %#x", step, via, i, got.multi[i], fresh.multi[i])
				}
			}
			checkDecodeAll(t, got, noise, step, 5000)
		}
	}
}
