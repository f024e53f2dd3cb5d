package core

// The chunk walk under every reader: an empty chunk read alike on every
// path, and FuzzChunkWalk, which holds InspectStream, the chunks a
// ChunkReader delivers and the range scan to one list of chunks and one
// end on arbitrary bytes.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ecc"
)

var walkTestChoice = Choice{Config: Config{Method: ecc.MethodSECDED, Param: 64}, Threads: 1}

// emptyChunkStream returns an unindexed stream of data (12 388 bytes in
// 4096-byte chunks) with an empty chunk, CRC-valid and in its place,
// spliced in after chunk 0.
func emptyChunkStream(tb testing.TB) (stream, data []byte) {
	data = make([]byte, 3*4096+100)
	rand.New(rand.NewSource(41)).Read(data)
	plain := encodeStream(tb, walkTestChoice, StreamOptions{ChunkSize: 4096, Pipeline: 1}, data)
	empty, _, err := encodeChunk(nil, nil, 4096, walkTestChoice, new(chunkScratch))
	if err != nil {
		tb.Fatal(err)
	}
	infos, err := InspectStream(bytes.NewReader(plain))
	if err != nil {
		tb.Fatal(err)
	}
	chunk0 := ContainerOverheadBytes + infos[0].EncLen
	return slices.Concat(plain[:chunk0], empty, plain[chunk0:]), data
}

// TestEmptyChunkIsReadAlikeOnEveryPath: a sequential decode and a range
// read of a stream holding an empty chunk return the same bytes, and
// InspectStream lists the empty chunk among the others.
func TestEmptyChunkIsReadAlikeOnEveryPath(t *testing.T) {
	stream, data := emptyChunkStream(t)
	got, err := io.ReadAll(NewChunkReaderWith(bytes.NewReader(stream), 1, StreamOptions{Pipeline: 1}))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("sequential decode: %d of %d bytes, err %v", len(got), len(data), err)
	}
	infos, err := InspectStream(bytes.NewReader(stream))
	if err != nil || len(infos) != 5 || infos[1].OrigLen != 0 {
		t.Fatalf("InspectStream: %d chunks, err %v; want 5 with chunk 1 empty", len(infos), err)
	}
	// A stream that starts with an empty chunk, read with every pooled
	// buffer dropped: the first output buffer is fresh, so the chunk
	// decodes to nil, which the reader must not take for a failure.
	first, _, err := encodeChunk(nil, nil, 0, walkTestChoice, new(chunkScratch))
	if err != nil {
		t.Fatal(err)
	}
	for _, pipeline := range []int{1, 4} {
		runtime.GC()
		runtime.GC() // a sync.Pool survives one collection, not two
		got, err := io.ReadAll(NewChunkReaderWith(bytes.NewReader(slices.Concat(first, stream)), 1, StreamOptions{Pipeline: pipeline}))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("pipeline %d, leading empty chunk: %d of %d bytes, err %v", pipeline, len(got), len(data), err)
		}
	}
	rr := openRange(t, stream, RangeOptions{Pipeline: 1})
	if rr.Size() != int64(len(data)) || rr.Chunks() != 4 {
		t.Fatalf("range reader: %d bytes in %d chunks, want %d in 4", rr.Size(), rr.Chunks(), len(data))
	}
	if !bytes.Equal(readAll(t, rr), data) {
		t.Fatal("range read returned other bytes")
	}
}

// TestEmptyChunkCountsInOrdinals: after an empty chunk, the stream
// reader and the range reader name a damaged chunk by the same
// ordinal. The range reader keeps no entry for the empty chunk, so it
// once numbered every chunk after it one low.
func TestEmptyChunkCountsInOrdinals(t *testing.T) {
	stream, data := emptyChunkStream(t)
	infos, err := InspectStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 2 (the data chunk after the empty one): a run of wrecked
	// bytes puts many flips in one SEC-DED codeword.
	at := 3*ContainerOverheadBytes + infos[0].EncLen + infos[1].EncLen + 100
	for i := at; i < at+16; i++ {
		stream[i] ^= 0xFF
	}
	check := func(reader string, err error) {
		t.Helper()
		var ce *ChunkError
		if !errors.As(err, &ce) || ce.Ordinal != 2 || !strings.HasPrefix(err.Error(), "chunk 2: ") {
			t.Errorf("%s: %v, want a *ChunkError for chunk 2", reader, err)
		}
	}
	for _, pipeline := range []int{1, 4} {
		_, err := io.ReadAll(NewChunkReaderWith(bytes.NewReader(stream), 1, StreamOptions{Pipeline: pipeline}))
		check(fmt.Sprintf("ChunkReader, pipeline %d", pipeline), err)
		rr := openRange(t, stream, RangeOptions{Pipeline: pipeline})
		_, _, err = rr.ReadRange(make([]byte, len(data)), 0, int64(len(data)))
		check(fmt.Sprintf("ReadRange, pipeline %d", pipeline), err)
	}
}

// chunkWalkSeeds returns streams whole and damaged: the shapes of
// FuzzStreamReader's and FuzzIndexDecode's seeds, the six goldens, the
// empty-chunk stream, and the stream faults of `arcstudy matrix` (a cut
// inside a chunk, a repeated chunk, two swapped) plus header bursts.
func chunkWalkSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{{}, encodeStream(tb, walkTestChoice, StreamOptions{ChunkSize: 2048, Pipeline: 1}, bytes.Repeat([]byte{7}, 6000))}
	// One chunk whose header, CRC-valid in all three replicas, claims
	// 1 GiB or 8 GiB of original bytes over the 8 its payload holds.
	one, h, err := encodeChunk(nil, make([]byte, 8), 0, walkTestChoice, new(chunkScratch))
	if err != nil {
		tb.Fatal(err)
	}
	for _, origLen := range []int{1 << 30, 1 << 33} {
		forged := bytes.Clone(one)
		h.OrigLen = origLen
		marshalHeaderInto(forged, h)
		seeds = append(seeds, forged)
	}

	data := make([]byte, 3*4096)
	rand.New(rand.NewSource(43)).Read(data)
	prefix := encodeStream(tb, walkTestChoice, StreamOptions{ChunkSize: 4096, Pipeline: 1}, data)
	v2 := encodeStream(tb, walkTestChoice, StreamOptions{ChunkSize: 4096, Pipeline: 1, Indexed: true}, data)
	footer := v2[len(prefix):]
	flipped := bytes.Clone(footer)
	flipped[10] ^= 0x04
	broken := bytes.Clone(footer)
	for i := len(broken) - TrailerBytes; i < len(broken); i++ {
		broken[i] ^= 0xA5
	}
	for _, tail := range [][]byte{footer, nil, make([]byte, len(footer)), footer[:len(footer)-30], footer[len(footer)-TrailerBytes:], flipped, broken} {
		seeds = append(seeds, slices.Concat(prefix, tail))
	}

	golden, err := filepath.Glob(filepath.Join("testdata", "stream_*.arc"))
	if err != nil || len(golden) != 6 {
		tb.Fatalf("goldens: %v, %v", golden, err)
	}
	for _, name := range golden {
		b, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	empty, _ := emptyChunkStream(tb)
	seeds = append(seeds, empty)

	n := len(prefix) / 3 // each chunk of prefix is one third of it
	c0, c1, c2 := prefix[:n], prefix[n:2*n], prefix[2*n:]
	seeds = append(seeds,
		slices.Concat(c0, c1[:n/2]),           // cut inside a chunk
		slices.Concat(c0, c1, c1, c2, footer), // a repeated chunk
		slices.Concat(c2, c1, c0),             // two swapped
	)
	for _, replicas := range []int{1, headerReplicas} {
		burst := bytes.Clone(v2)
		for r := 0; r < replicas; r++ {
			for i := 0; i < 4; i++ {
				burst[n+r*headerLen+6+i] ^= 0xFF // Param and DevSize of chunk 1
			}
		}
		seeds = append(seeds, burst)
	}
	return seeds
}

// TestChunkWalkSeedsReachEveryEnd keeps FuzzChunkWalk's seeds honest:
// among them, walks end in each of the four ways and a ChunkReader stops
// on a chunk that does not decode.
func TestChunkWalkSeedsReachEveryEnd(t *testing.T) {
	ends := map[endKind]int{}
	undecoded := 0
	for _, seed := range chunkWalkSeeds(t) {
		w := rangeWalk(bytes.NewReader(seed), 0, int64(len(seed)))
		for _, ok := w.next(); ok; _, ok = w.next() {
		}
		ends[w.end]++
		if _, cr, err := deliveredChunks(seed); err != io.EOF && err != cr.walk.err {
			undecoded++
		}
	}
	for _, end := range []endKind{endClean, endFooter, endTruncated, endCorrupt} {
		if ends[end] == 0 {
			t.Errorf("no seed ends at end %d (%v)", end, ends)
		}
	}
	if undecoded == 0 {
		t.Error("no seed stops a ChunkReader on a chunk that does not decode")
	}
}

// FuzzChunkWalk is the differential test of the one chunk walk. On
// arbitrary bytes three readers must list the same chunks — header,
// encoded offset, original offset — and agree on how the walk ended:
// InspectStream, the ChunkReader (every chunk it delivers, and where it
// stops), and the io.ReaderAt walk behind the range scan, whose entries
// are its nonempty chunks. Where the footer index loads over a stream
// every chunk of which decodes, the index entries are the scan's too.
// All of it stays within corruptAllocBudget.
func FuzzChunkWalk(f *testing.F) {
	for _, seed := range chunkWalkSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(chunkWalkCheck)
}

// chunkWalkCheck is FuzzChunkWalk's body.
func chunkWalkCheck(t *testing.T, data []byte) {
	if len(data) > 1<<20 {
		return
	}
	var (
		walk        chunkWalk
		chunks      []chunkAt
		infos       []ChunkInfo
		inspectErr  error
		seen        map[int]chunkAt
		cr          *ChunkReader
		readErr     error
		scan, index *RangeReader
		indexErr    error
		src         = bytes.NewReader(data)
		size        = int64(len(data))
		allocs      = allocDelta(func() {
			walk = rangeWalk(src, 0, size)
			for c, ok := walk.next(); ok; c, ok = walk.next() {
				chunks = append(chunks, c)
			}
			infos, inspectErr = InspectStream(bytes.NewReader(data))
			seen, cr, readErr = deliveredChunks(data)
			scan = &RangeReader{src: src, size: size}
			scan.scanEntries()
			index = &RangeReader{src: src, size: size}
			indexErr = index.loadIndex()
		})
	)
	if allocs > corruptAllocBudget(len(data)) {
		t.Fatalf("the walks allocated %d bytes for a %d-byte input", allocs, len(data))
	}
	if walk.end == walking || (walk.err == io.EOF) != (walk.end == endClean || walk.end == endFooter) {
		t.Fatalf("walk stopped at end %d with %v", walk.end, walk.err)
	}

	// InspectStream: the same chunks, and an error exactly when the
	// walk did not end cleanly or at the footer.
	if len(infos) != len(chunks) || (inspectErr == nil) != (walk.err == io.EOF) {
		t.Fatalf("InspectStream listed %d chunks (err %v); the walk %d (end %d, %v)",
			len(infos), inspectErr, len(chunks), walk.end, walk.err)
	}
	var off, orig int64
	for i, ci := range infos {
		c := chunks[i]
		want := ChunkInfo{Config: c.h.config(), DevSize: c.h.DevSize, OrigLen: c.h.OrigLen, EncLen: c.h.EncLen, HeaderLen: c.h.size()}
		if ci != want || c.off != off || c.orig != orig {
			t.Fatalf("chunk %d: InspectStream %+v at (%d, %d); the walk %+v", i, ci, off, orig, c)
		}
		off += int64(ci.HeaderLen + ci.EncLen)
		orig += int64(ci.OrigLen)
	}

	// ChunkReader: each chunk it delivered is the walk's at its
	// ordinal. It stops where the walk ends, with the walk's error,
	// or at the first chunk that does not decode.
	for ord, c := range seen {
		if ord >= len(chunks) || c != chunks[ord] {
			t.Fatalf("ChunkReader delivered chunk %d as %+v; the walk lists %d chunks", ord, c, len(chunks))
		}
	}
	decoded := cr.walk.end != walking && (readErr == io.EOF || readErr == cr.walk.err)
	if decoded {
		if cr.walk.end != walk.end || cr.report.Chunks != len(chunks) {
			t.Fatalf("ChunkReader read %d chunks to end %d (%v); the walk %d to end %d (%v)",
				cr.report.Chunks, cr.walk.end, readErr, len(chunks), walk.end, walk.err)
		}
	} else if k := cr.report.Chunks - 1; k < 0 || k >= len(chunks) || cr.walk.cur != chunks[k] {
		t.Fatalf("ChunkReader stopped at chunk %d (%v) on %+v; the walk lists %d chunks", k, readErr, cr.walk.cur, len(chunks))
	}

	// The range scan: one entry a nonempty chunk, numbered by its
	// place among all of them.
	var entries []indexEntry
	for ord, c := range chunks {
		if c.h.OrigLen > 0 {
			entries = append(entries, indexEntry{Off: c.off, EncLen: int64(c.h.EncLen),
				OrigStart: c.orig, OrigLen: int64(c.h.OrigLen), hdrLen: int64(c.h.size()), ord: ord})
		}
	}
	if !slices.Equal(scan.entries, entries) {
		t.Fatalf("scan entries %+v; the walk's %+v", scan.entries, entries)
	}
	if indexErr == nil && decoded && walk.end == endFooter {
		got := slices.Clone(index.entries)
		for i := range got {
			got[i].HdrCRC = 0 // written by the writer, never read; a scan leaves it 0
		}
		if !slices.Equal(got, entries) {
			t.Fatalf("index entries %+v; the scan's %+v", got, entries)
		}
	}
}

// deliveredChunks reads data through a sequential ChunkReader until its
// terminal error and returns, by ordinal, the chunk the walk under it
// had accepted when each Read delivered bytes.
func deliveredChunks(data []byte) (map[int]chunkAt, *ChunkReader, error) {
	cr := NewChunkReaderWith(bytes.NewReader(data), 1, StreamOptions{Pipeline: 1})
	defer cr.Close()
	seen := map[int]chunkAt{}
	buf := make([]byte, 64<<10)
	for {
		if _, err := cr.Read(buf); err != nil {
			return seen, cr, err
		}
		seen[cr.report.Chunks-1] = cr.walk.cur
	}
}

// corruptAllocBudget is the root fuzzers' allocation ceiling for
// decoding one corrupted stream: 4 KiB per input byte plus 8 MiB.
func corruptAllocBudget(inputLen int) uint64 {
	return 4096*uint64(inputLen) + (8 << 20)
}

// allocDelta returns the bytes allocated while fn runs.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
