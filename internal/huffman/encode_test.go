package huffman

import (
	"bytes"
	"container/heap"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitio"
)

// buildFullRef is the build as it was before BuildUsed: the full
// frequency table scanned for the used symbols, the tree over them, and
// the symbols sorted by (length, symbol) with sort.Slice before the
// canonical codes are counted out. It returns the lengths, the codes
// of the used symbols (zero elsewhere) and what WriteTable writes.
func buildFullRef(t *testing.T, freqs []int64) (lengths []uint8, codes []uint64, table []byte) {
	t.Helper()
	n := len(freqs)
	lengths = make([]uint8, n)
	codes = make([]uint64, n)
	var h hheap
	for s, f := range freqs {
		if f > 0 {
			h = append(h, &hnode{freq: f, sym: s})
		}
	}
	if len(h) == 1 {
		lengths[h[0].sym] = 1
	} else {
		heap.Init(&h)
		for h.Len() > 1 {
			a := heap.Pop(&h).(*hnode)
			b := heap.Pop(&h).(*hnode)
			heap.Push(&h, &hnode{freq: a.freq + b.freq, sym: -1, left: a, right: b})
		}
		if err := assignLengths(h[0], 0, lengths); err != nil {
			t.Fatal(err)
		}
	}
	var used []int
	for s, l := range lengths {
		if l > 0 {
			used = append(used, s)
		}
	}
	sort.Slice(used, func(i, j int) bool {
		li, lj := lengths[used[i]], lengths[used[j]]
		if li != lj {
			return li < lj
		}
		return used[i] < used[j]
	})
	var counts [MaxCodeLen + 1]uint64
	for _, s := range used {
		counts[lengths[s]]++
	}
	var next [MaxCodeLen + 1]uint64
	code := uint64(0)
	for l := 1; l <= MaxCodeLen; l++ {
		next[l] = code
		code = (code + counts[l]) << 1
	}
	for _, s := range used {
		codes[s] = next[lengths[s]]
		next[lengths[s]]++
	}
	var w bitio.Writer
	w.WriteBits(uint64(n), 32) //arcvet:ignore mathbits n is a slice length
	w.WriteBits(uint64(len(used)), 32)
	for _, s := range used {
		w.WriteBits(uint64(s), 32) //arcvet:ignore mathbits s is an index of lengths
		w.WriteBits(uint64(lengths[s]), 6)
	}
	return lengths, codes, w.Bytes()
}

// usedOf lists the symbols of freqs with a positive frequency, in
// ascending order, and their frequencies: BuildUsed's arguments.
func usedOf(freqs []int64) ([]int32, []int64) {
	var used []int32
	var uf []int64
	for s, f := range freqs {
		if f > 0 {
			used = append(used, int32(s)) //arcvet:ignore mathbits test alphabets have at most 1<<16 symbols
			uf = append(uf, f)
		}
	}
	return used, uf
}

// checkSameBuild holds c, built over freqs, to the full-alphabet
// reference: every length and code, and the serialized table.
func checkSameBuild(t *testing.T, name string, c *Codec, freqs []int64) {
	t.Helper()
	lengths, codes, table := buildFullRef(t, freqs)
	if c.NumSymbols != len(freqs) || len(c.lengths) != len(freqs) {
		t.Fatalf("%s: alphabet %d (%d lengths), want %d", name, c.NumSymbols, len(c.lengths), len(freqs))
	}
	for s := range lengths {
		if c.lengths[s] != lengths[s] || c.codes[s] != codes[s] {
			t.Fatalf("%s: symbol %d has length %d code %#x, the reference %d %#x", name, s, c.lengths[s], c.codes[s], lengths[s], codes[s])
		}
	}
	var w bitio.Writer
	c.WriteTable(&w)
	if !bytes.Equal(w.Bytes(), table) {
		t.Fatalf("%s: WriteTable differs from the reference's", name)
	}
}

// TestBuildUsedMatchesFullBuild holds the used-symbol build, through
// BuildUsed and through BuildInto's full table, to the full-alphabet
// reference, on fresh codecs and on one codec reused across the cases.
func TestBuildUsedMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const alphabet = 1 << 16
	zeroAndCentre := make([]int64, alphabet)
	zeroAndCentre[0] = 40
	for s := 32768 - 150; s <= 32768+170; s++ {
		if rng.Intn(3) != 0 {
			zeroAndCentre[s] = int64(rng.Intn(5000)/(1+abs(s-32768))) + 1
		}
	}
	ends := make([]int64, alphabet)
	ends[0], ends[alphabet-1] = 3, 7
	single := make([]int64, alphabet)
	single[32768] = 1000
	fib := make([]int64, alphabet)
	a, b := int64(1), int64(1)
	for i := 0; i <= MaxCodeLen; i++ {
		fib[32768-MaxCodeLen/2+i] = a
		a, b = b, a+b
	}
	cases := []struct {
		name  string
		freqs []int64
	}{
		{"symbol 0 with a range near 32768", zeroAndCentre},
		{"symbols 0 and 65535", ends},
		{"single symbol", single},
		{"fibonacci", fib},
		{"small alphabet", []int64{0, 5, 0, 1, 1, 9}},
	}
	reused := new(Codec)
	for _, tc := range cases {
		used, uf := usedOf(tc.freqs)
		c, err := BuildUsed(nil, len(tc.freqs), used, uf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSameBuild(t, tc.name+" (BuildUsed)", c, tc.freqs)
		if c, err = BuildInto(nil, tc.freqs); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSameBuild(t, tc.name+" (BuildInto)", c, tc.freqs)
		if _, err := BuildUsed(reused, len(tc.freqs), used, uf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSameBuild(t, tc.name+" (reused)", reused, tc.freqs)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestBuildUsedRefusesBadLists pins what BuildUsed checks of its
// arguments before it touches the codec.
func TestBuildUsedRefusesBadLists(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		used  []int32
		freqs []int64
	}{
		{"empty alphabet", 0, []int32{0}, []int64{1}},
		{"no symbols", 4, nil, nil},
		{"length mismatch", 4, []int32{1, 2}, []int64{1}},
		{"descending", 4, []int32{2, 1}, []int64{1, 1}},
		{"repeated", 4, []int32{1, 1}, []int64{1, 1}},
		{"outside the alphabet", 4, []int32{1, 4}, []int64{1, 1}},
		{"negative", 4, []int32{-1, 2}, []int64{1, 1}},
		{"zero frequency", 4, []int32{1, 2}, []int64{1, 0}},
	} {
		if _, err := BuildUsed(nil, tc.n, tc.used, tc.freqs); err == nil {
			t.Errorf("%s: BuildUsed accepted it", tc.name)
		}
	}
}

// TestReusedBuildKeepsNothingStale rebuilds one codec over disjoint
// ranges of one alphabet, as SZ's pooled encoder does from slab to
// slab, and after a failed build: every length, code and EncodeAll word
// must equal a fresh codec's, so no entry of the code before survives.
func TestReusedBuildKeepsNothingStale(t *testing.T) {
	const alphabet = 1 << 16
	span := func(lo, hi int) []int64 {
		f := make([]int64, alphabet)
		for s := lo; s <= hi; s++ {
			f[s] = int64(s%7) + 1
		}
		return f
	}
	deep := make([]int64, alphabet) // lengths past MaxCodeLen: the build fails
	a, b := int64(1), int64(1)
	for i := 0; i < MaxCodeLen+3; i++ {
		deep[100+i] = a
		a, b = b, a+b
	}
	reused := new(Codec)
	for step, freqs := range [][]int64{span(32000, 32100), span(33000, 33300), deep, span(10, 20), span(32700, 32800)} {
		used, uf := usedOf(freqs)
		_, err := BuildUsed(reused, alphabet, used, uf)
		fresh, ferr := BuildUsed(nil, alphabet, used, uf)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("step %d: reused err %v, fresh err %v", step, err, ferr)
		}
		if err != nil {
			continue
		}
		var w bitio.Writer
		reused.EncodeAll(&w, used) // packs the word table
		fresh.packWords()
		for s := 0; s < alphabet; s++ {
			if reused.lengths[s] != fresh.lengths[s] || reused.codes[s] != fresh.codes[s] || reused.words[s] != fresh.words[s] {
				t.Fatalf("step %d: symbol %d has length %d code %#x word %#x, a fresh codec %d %#x %#x", step, s,
					reused.lengths[s], reused.codes[s], reused.words[s], fresh.lengths[s], fresh.codes[s], fresh.words[s])
			}
		}
	}
}

// encodeInput derives a code and a symbol stream from fuzz input: an
// alphabet of 2 to 65 536 symbols, frequencies either from the bytes or
// Fibonacci numbers (code lengths up to MaxCodeLen), and symbols drawn
// from the used ones.
func encodeInput(data []byte, alphabet uint16, fib bool) (*Codec, []int32) {
	n := int(alphabet) + 1
	if n < 2 {
		n = 2
	}
	freqs := make([]int64, n)
	var used []int32
	if fib {
		a, b := int64(1), int64(1)
		for i := 0; i <= MaxCodeLen && i < n; i++ {
			s := (i * 7919) % n
			if freqs[s] == 0 {
				freqs[s] = a
				a, b = b, a+b
			}
		}
	} else {
		for i := 0; i+2 < len(data) && i < 3*512; i += 3 {
			s := (int(data[i])<<8 | int(data[i+1])) % n
			freqs[s] += int64(data[i+2]) + 1
		}
	}
	for s, f := range freqs {
		if f > 0 {
			used = append(used, int32(s)) //arcvet:ignore mathbits s < n <= 1<<16
		}
	}
	if len(used) == 0 {
		freqs[n-1] = 1
		used = append(used, int32(n-1)) //arcvet:ignore mathbits n <= 1<<16
	}
	c, err := Build(freqs)
	if err != nil {
		return nil, nil
	}
	syms := make([]int32, 0, len(data))
	for _, d := range data {
		syms = append(syms, used[int(d)%len(used)])
	}
	return c, syms
}

// checkEncodeAll holds EncodeAll to one Encode per symbol: after lead
// bits already in the writer, into a writer with no room and into one
// sized exactly for the stream; and DecodeAll must read the symbols
// back.
func checkEncodeAll(t *testing.T, c *Codec, syms []int32, lead int) {
	t.Helper()
	var ref bitio.Writer
	ref.WriteBits(0x5b, lead)
	for _, s := range syms {
		c.Encode(&ref, int(s))
	}
	bits := ref.Len()
	want := ref.Bytes()
	for _, room := range []int{0, (bits + 7) / 8} {
		w := bitio.NewWriter(make([]byte, 0, room))
		w.WriteBits(0x5b, lead)
		c.EncodeAll(w, syms)
		if w.Len() != bits {
			t.Fatalf("lead %d room %d, %d symbols: EncodeAll wrote %d bits, Encode %d", lead, room, len(syms), w.Len(), bits)
		}
		got := w.Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("lead %d room %d, %d symbols: EncodeAll's bytes differ from Encode's", lead, room, len(syms))
		}
		if room > 0 && cap(got) != room {
			t.Fatalf("lead %d, %d symbols: a buffer sized for the stream grew from %d to %d", lead, len(syms), room, cap(got))
		}
	}
	r := bitio.NewReader(want)
	_ = r.Skip(lead)
	dst := make([]int32, len(syms))
	if n, err := c.DecodeAll(r, dst); err != nil || n != len(syms) {
		t.Fatalf("lead %d: DecodeAll read %d of %d symbols: %v", lead, n, len(syms), err)
	}
	for i := range syms {
		if dst[i] != syms[i] {
			t.Fatalf("lead %d: symbol %d decoded as %d, encoded %d", lead, i, dst[i], syms[i])
		}
	}
}

// FuzzHuffmanEncodeAll builds a code from fuzzed frequencies and holds
// EncodeAll to the Encode loop from every bit offset of the writer's
// partial byte and with every tail a group leaves, 0 to k-1 symbols.
func FuzzHuffmanEncodeAll(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	seed := make([]byte, 600)
	rng.Read(seed)
	f.Add(seed, uint16(1), false)
	f.Add(seed, uint16(255), false)
	f.Add(seed, uint16(65535), false)
	f.Add(seed, uint16(64), true)
	f.Add(seed, uint16(65535), true)
	f.Add([]byte{7}, uint16(3), false)
	// Fibonacci codes whose longest is 19 and 57 bits, the symbols all
	// of the longest: after a lead of 7 bits a group fills its whole
	// 64-bit word (7+3*19, 7+57), which the whole-byte shift must clear.
	f.Add(make([]byte, 64), uint16(19), true)
	f.Add(make([]byte, 64), uint16(57), true)
	f.Fuzz(func(t *testing.T, data []byte, alphabet uint16, fib bool) {
		if len(data) > 1<<14 {
			return
		}
		c, syms := encodeInput(data, alphabet, fib)
		if c == nil {
			return
		}
		k := 1
		if c.maxLen <= wordBits {
			k = min(wordBits/c.maxLen, len(groupSteps)-1)
		}
		for lead := 0; lead < 8; lead++ {
			for tail := 0; tail < k && tail <= len(syms); tail++ {
				checkEncodeAll(t, c, syms[:len(syms)-tail], lead)
			}
		}
	})
}

// TestEncodeAllPanicsMidStream puts a symbol without a code deep into a
// stream encoded into a buffer with room, where the group steps, not
// Encode, meet it: EncodeAll must still panic.
func TestEncodeAllPanicsMidStream(t *testing.T) {
	c, err := Build([]int64{5, 0, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	syms := make([]int32, 1000)
	for i := range syms {
		syms[i] = int32(2 * (i % 2)) //arcvet:ignore mathbits 0 or 2
	}
	syms[500] = 1
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeAll of a symbol without a code did not panic")
		}
	}()
	c.EncodeAll(bitio.NewWriter(make([]byte, 0, 4096)), syms)
}
