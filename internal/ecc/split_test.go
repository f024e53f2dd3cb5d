package ecc

import (
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
	"repro/internal/raceflag"
)

// splitProbe is a pass over the bytes of Src: each range returns their
// CRC-32C, one detected block per byte and one failure, and counts the
// ranges that were handed a Scratch.
type splitProbe struct{ scratched atomic.Int32 }

func (sp *splitProbe) run(a Args, lo, hi int) Part {
	if a.Scratch != nil {
		sp.scratched.Add(1)
	}
	p := Part{Report: Report{DetectedBlocks: hi - lo}, Failed: 1}
	p.Update(a.Src[lo:hi])
	return p
}

// TestSplit holds Split's join to the whole pass at every worker
// count: the CRC-32C of the concatenation, every range's report and
// failure counted once, the caller's Scratch only on the inline path,
// and that path free of allocations.
func TestSplit(t *testing.T) {
	buf := make([]byte, 10007)
	rand.New(rand.NewSource(55)).Read(buf)
	var s Scratch
	for _, n := range []int{0, 1, 2, 4096, len(buf)} {
		for _, workers := range []int{0, 1, 2, 3, 7, 64, n + 5} {
			var sp splitProbe
			p := Split(&sp, (*splitProbe).run, Args{Src: buf[:n], Scratch: &s}, n, workers)
			w := parallel.Clamp(workers, n)
			if p.CRC != crc32.Checksum(buf[:n], Castagnoli) || p.Len != n {
				t.Fatalf("n=%d workers=%d: joined CRC %08x over %d bytes, want %08x over %d",
					n, workers, p.CRC, p.Len, crc32.Checksum(buf[:n], Castagnoli), n)
			}
			if p.Report.DetectedBlocks != n || p.Failed != w {
				t.Fatalf("n=%d workers=%d: joined %d detected and %d failed, want %d and %d",
					n, workers, p.Report.DetectedBlocks, p.Failed, n, w)
			}
			want := int32(0)
			if w == 1 {
				want = 1 // the inline call's: the caller's Scratch
			}
			if sp.scratched.Load() != want {
				t.Fatalf("n=%d workers=%d: %d ranges saw a Scratch, want %d", n, workers, sp.scratched.Load(), want)
			}
		}
	}
	if raceflag.Enabled {
		return // allocation accounting is unreliable under the race detector
	}
	var sp splitProbe
	a := Args{Src: buf, Scratch: &s}
	if avg := testing.AllocsPerRun(100, func() { Split(&sp, (*splitProbe).run, a, len(buf), 1) }); avg != 0 {
		t.Fatalf("one-worker Split allocates %.2f allocs/op, want 0", avg)
	}
}
