package huffman

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// checkDecodeAll holds DecodeAll to the loop it replaces: from bit skip
// of stream, count symbols through one Decode each and through one
// DecodeAll must give the same symbols, the same number of them before
// the first error, the same error and the same reader position. It is
// the body of TestDecodeAllMatchesDecode and of FuzzHuffmanDecodeAll.
func checkDecodeAll(t *testing.T, c *Codec, stream []byte, skip, count int) {
	t.Helper()
	ref := bitio.NewReader(stream)
	if ref.Skip(skip) != nil {
		return
	}
	want := make([]int32, 0, count)
	var wantErr error
	for len(want) < count {
		s, err := c.Decode(ref)
		if err != nil {
			wantErr = err
			break
		}
		want = append(want, int32(s)) //arcvet:ignore mathbits s < NumSymbols <= maxAlphabet (1<<26)
	}

	r := bitio.NewReader(stream)
	_ = r.Skip(skip)
	dst := make([]int32, count)
	for i := range dst {
		dst[i] = -1
	}
	n, err := c.DecodeAll(r, dst)
	if n != len(want) {
		t.Fatalf("DecodeAll stored %d symbols (err %v), the Decode loop %d (err %v)", n, err, len(want), wantErr)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeAll: %v, the Decode loop: %v", err, wantErr)
	}
	if r.Pos() != ref.Pos() {
		t.Fatalf("DecodeAll left the reader at bit %d, the Decode loop at %d (n=%d, err %v)", r.Pos(), ref.Pos(), n, err)
	}
	for i, s := range want {
		if dst[i] != s {
			t.Fatalf("symbol %d: DecodeAll %d, Decode %d", i, dst[i], s)
		}
	}
}

// batchAlphabet is one code of the differential tables.
type batchAlphabet struct {
	name  string
	freqs []int64
}

// batchAlphabets covers both sides of every fork in the batch calls:
// a second symbol per entry or none (70 000 symbols do not fit sym2's
// 16 bits), the degenerate one-bit code whose other half of the table
// is empty, SZ's shape (65 536 symbols, a few of them nearly all the
// mass), and Fibonacci frequencies, whose code lengths run 1, 2, 3 …
// MaxCodeLen so every length above lutBits meets the slow step.
func batchAlphabets() []batchAlphabet {
	rng := rand.New(rand.NewSource(40))
	uniform := func(n int) []int64 {
		f := make([]int64, n)
		for i := range f {
			f[i] = int64(rng.Intn(50)) + 1
		}
		return f
	}
	skewed := func(n, used int) []int64 {
		f := make([]int64, n)
		for i := 0; i < used; i++ {
			f[(n/2+i*(1-2*(i&1))/2+n)%n] += int64(1_000_000/(i*i+1)) + 1
		}
		return f
	}
	fib := make([]int64, MaxCodeLen+1)
	fib[0], fib[1] = 1, 1
	for i := 2; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	single := make([]int64, 9)
	single[4] = 7
	return []batchAlphabet{
		{"2", []int64{3, 1}},
		{"17", uniform(17)},
		{"256", uniform(256)},
		{"65536-skewed", skewed(1<<16, 900)},
		{"70000-skewed", skewed(70000, 900)},
		{"single", single},
		{"fibonacci", fib},
	}
}

// batchSymbols draws n symbols: most by frequency, so the short codes
// that fill multi-symbol entries dominate as they do in SZ's streams,
// and every fourth uniformly over the used symbols, so the long ones
// are never absent.
func batchSymbols(rng *rand.Rand, freqs []int64, n int) []int32 {
	var used []int32
	var cum []int64
	var total int64
	for s, f := range freqs {
		if f > 0 {
			total += f
			used = append(used, int32(s)) //arcvet:ignore mathbits s indexes a test alphabet of at most 70 000 symbols
			cum = append(cum, total)
		}
	}
	out := make([]int32, n)
	for i := range out {
		if i%4 == 3 {
			out[i] = used[rng.Intn(len(used))]
			continue
		}
		x := rng.Int63n(total)
		lo, hi := 0, len(cum)-1
		for lo < hi {
			if mid := (lo + hi) / 2; cum[mid] > x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[i] = used[lo]
	}
	return out
}

func TestEncodeAllMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, a := range batchAlphabets() {
		c, err := Build(a.freqs)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
			syms := batchSymbols(rng, a.freqs, n)
			// A few bits ahead of the codes, so the batch does not start
			// on a word boundary of the writer.
			lead := rng.Intn(64)
			var one, all bitio.Writer
			one.WriteBits(0x5a5a5a5a5a5a5a5a, lead)
			all.WriteBits(0x5a5a5a5a5a5a5a5a, lead)
			for _, s := range syms {
				c.Encode(&one, int(s))
			}
			c.EncodeAll(&all, syms)
			if one.Len() != all.Len() {
				t.Fatalf("%s n=%d: EncodeAll wrote %d bits, Encode %d", a.name, n, all.Len(), one.Len())
			}
			if string(one.Bytes()) != string(all.Bytes()) {
				t.Fatalf("%s n=%d: EncodeAll's bytes differ from Encode's", a.name, n)
			}
		}
	}
}

func TestEncodeAllUnusedSymbolPanics(t *testing.T) {
	c, err := Build([]int64{5, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeAll of a symbol without a code did not panic")
		}
	}()
	var w bitio.Writer
	c.EncodeAll(&w, []int32{0, 2, 1})
}

func TestDecodeAllMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, a := range batchAlphabets() {
		c, err := Build(a.freqs)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		for trial := 0; trial < 40; trial++ {
			n := []int{0, 1, 2, 3, 7, 8, 9, 61, 500, 3001}[trial%10]
			syms := batchSymbols(rng, a.freqs, n)
			lead := rng.Intn(24)
			var w bitio.Writer
			w.WriteBits(0, lead)
			c.EncodeAll(&w, syms)
			clean := w.Bytes()
			t.Run(fmt.Sprintf("%s/n=%d/%d", a.name, n, trial), func(t *testing.T) {
				// Clean, with len(dst) below, at and beyond what the
				// stream holds (beyond: the padding bits decode or fail,
				// then the stream ends).
				for _, count := range []int{0, 1, n / 2, n/2 | 1, n - 1, n, n + 1, n + 9, 2*n + 40} {
					if count >= 0 {
						checkDecodeAll(t, c, clean, lead, count)
					}
				}
				// The same symbols from byte 0, and from a bit position
				// that is not where a code starts.
				checkDecodeAll(t, c, clean, 0, n+5)
				checkDecodeAll(t, c, clean, lead+1, n+5)
				// Truncated.
				for k := 0; k < 4 && len(clean) > 0; k++ {
					checkDecodeAll(t, c, clean[:rng.Intn(len(clean))], lead, n)
				}
				// Bit-flipped.
				for k := 0; k < 4 && len(clean) > 0; k++ {
					flipped := append([]byte(nil), clean...)
					bit := rng.Intn(8 * len(flipped))
					flipped[bit/8] ^= 0x80 >> (bit % 8)
					checkDecodeAll(t, c, flipped, lead, n+3)
				}
				// Zero-extended: the word step reaches further than the
				// codes do.
				extended := append(append([]byte(nil), clean...), make([]byte, 1+rng.Intn(40))...)
				checkDecodeAll(t, c, extended, lead, n)
				checkDecodeAll(t, c, extended, lead, n+400)
				// Noise.
				noise := make([]byte, rng.Intn(200))
				rng.Read(noise)
				checkDecodeAll(t, c, noise, rng.Intn(8), 900)
			})
		}
	}
}

// FuzzHuffmanDecodeAll reads a serialized table and holds DecodeAll
// over the bytes behind it to the Decode loop, from any bit offset and
// for any count: whatever table a corrupt header yields — underfull, a
// single code, an alphabet past sym2's 16 bits — both must agree.
func FuzzHuffmanDecodeAll(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, a := range batchAlphabets() {
		c, err := Build(a.freqs)
		if err != nil {
			f.Fatal(err)
		}
		var w bitio.Writer
		c.WriteTable(&w)
		c.EncodeAll(&w, batchSymbols(rng, a.freqs, 300))
		f.Add(w.Bytes(), uint16(300), uint8(0))
		f.Add(w.Bytes(), uint16(340), uint8(3))
	}
	f.Add([]byte{}, uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, count uint16, skip uint8) {
		if len(data) > 1<<18 {
			return
		}
		r := bitio.NewReader(data)
		c, err := ReadTableMax(r, 1<<17)
		if err != nil {
			return
		}
		checkDecodeAll(t, c, data, r.Pos()+int(skip), int(count))
	})
}

// TestBatchCallsDoNotAllocate pins what the kernel benchmarks report:
// both batch calls work in the caller's buffers.
func TestBatchCallsDoNotAllocate(t *testing.T) {
	a := batchAlphabets()[3] // 65 536 symbols, skewed: long codes included
	c, err := Build(a.freqs)
	if err != nil {
		t.Fatal(err)
	}
	syms := batchSymbols(rand.New(rand.NewSource(44)), a.freqs, 4000)
	var first bitio.Writer
	c.EncodeAll(&first, syms)
	coded := first.Bytes()
	buf := make([]byte, 0, len(coded)+8)
	dst := make([]int32, len(syms))
	var w bitio.Writer
	var r bitio.Reader
	if allocs := testing.AllocsPerRun(20, func() {
		w = *bitio.NewWriter(buf)
		c.EncodeAll(&w, syms)
	}); allocs != 0 {
		t.Errorf("EncodeAll allocates %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		r = *bitio.NewReader(coded)
		if _, err := c.DecodeAll(&r, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeAll allocates %v times per run", allocs)
	}
}
