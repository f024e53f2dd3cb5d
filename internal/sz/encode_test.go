package sz

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/datasets"
	"repro/internal/huffman"
	"repro/internal/raceflag"
)

// TestReusedEncScratchKeepsNothingStale runs one encScratch, as the
// pool hands it from slab to slab, over symbol streams with disjoint
// ranges, with and without symbol 0, all 0, and reaching the ends of
// the alphabet. After each count every counter is zero again, the
// counts equal a plain histogram's, and the codec rebuilt in place
// gives every symbol the length a fresh full-table build gives it and
// encodes the stream to the same bytes.
func TestReusedEncScratchKeepsNothingStale(t *testing.T) {
	span := func(lo, hi, zeros int) []int32 {
		var syms []int32
		for s := lo; s <= hi; s++ {
			for k := 0; k <= s%5; k++ {
				syms = append(syms, int32(s)) //arcvet:ignore mathbits test symbols are below 2*quantRadius
			}
		}
		for k := 0; k < zeros; k++ {
			syms = append(syms, 0)
		}
		return syms
	}
	es := new(encScratch)
	for step, syms := range [][]int32{
		span(32000, 32100, 0),
		span(33000, 33300, 17),
		span(0, -1, 9), // all unpredictable
		span(32760, 32770, 1),
		append(span(2, 3, 2), span(65533, 65534, 0)...),
		span(32768, 32768, 0),
	} {
		used, freqs := es.count(syms)
		for i, c := range es.lanes {
			if c != 0 {
				t.Fatalf("step %d: lane %d, symbol %d keeps count %d", step, i/(2*quantRadius), i%(2*quantRadius), c)
			}
		}
		hist := make([]int64, 2*quantRadius)
		for _, s := range syms {
			hist[s]++
		}
		wantUsed, wantFreqs := []int32{}, []int64{}
		for s, f := range hist {
			if f > 0 {
				wantUsed = append(wantUsed, int32(s)) //arcvet:ignore mathbits s < 2*quantRadius
				wantFreqs = append(wantFreqs, f)
			}
		}
		if !slicesEqual(used, wantUsed) || !slicesEqual(freqs, wantFreqs) {
			t.Fatalf("step %d: count gave %d used symbols, the histogram %d", step, len(used), len(wantUsed))
		}
		got, err := huffman.BuildUsed(&es.codec, 2*quantRadius, used, freqs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fresh, err := huffman.Build(hist)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for s := range hist {
			if got.Length(s) != fresh.Length(s) {
				t.Fatalf("step %d: symbol %d has length %d, a fresh codec %d", step, s, got.Length(s), fresh.Length(s))
			}
		}
		var gw, fw bitio.Writer
		got.WriteTable(&gw)
		got.EncodeAll(&gw, syms)
		fresh.WriteTable(&fw)
		fresh.EncodeAll(&fw, syms)
		if !bytes.Equal(gw.Bytes(), fw.Bytes()) {
			t.Fatalf("step %d: the reused codec encodes differently from a fresh one", step)
		}
	}
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompressAllocs pins what a steady-state Compress of one slab of
// 2^18 values allocates: the quantizer's symbols and reconstruction (4
// and 8 bytes a value), the payload, sized once, DEFLATE's output, sized
// once, and a few small objects (among them the quantizer's zero row).
// The Huffman bytes are written into the payload in place, so there is
// no second copy of them, and neither buffer grows by doubling: 9
// allocations and 3.59 MB a run, where appending to growing buffers
// made 41 and 4.80 MB.
func TestCompressAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	f := datasets.CESM(128, 2048, 1)
	lo, hi := valueRange(f.Data)
	opts := Options{Mode: ModeABS, ErrorBound: (hi - lo) * 1e-3}
	out, err := Compress(f.Data, f.Dims, opts) // warms the pools
	if err != nil {
		t.Fatal(err)
	}
	payload := int(binary.LittleEndian.Uint64(out[len(magic):])) //arcvet:ignore mathbits the length of a payload Compress just built
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := Compress(f.Data, f.Dims, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs > 9 {
		t.Errorf("Compress allocates %v times per run, want <= 9 (41 before the payload was sized)", allocs)
	}
	// One P, as in AllocsPerRun: a pooled object Put on one P is not
	// found by a Get on another (the per-P private slot cannot be
	// stolen), and that miss is the pool's, not Compress's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		out, _ = Compress(f.Data, f.Dims, opts)
	}
	runtime.ReadMemStats(&after)
	perRun := int(after.TotalAlloc-before.TotalAlloc) / runs //arcvet:ignore mathbits ten runs allocate tens of megabytes
	// The small objects are 16 KiB of zero row (a row of 2048 values)
	// and a few hundred bytes.
	quant := 12 * len(f.Data)
	if want := quant + payload + cap(out) + 20<<10; perRun > want {
		t.Errorf("Compress allocates %d bytes per run, want at most %d: %d of symbols and reconstruction, the %d-byte payload, the %d-byte result and 20 KiB",
			perRun, want, quant, payload, cap(out))
	}
}
