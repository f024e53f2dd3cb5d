package ecc

import (
	"hash/crc32"

	"repro/internal/parallel"
)

// Args are the buffers of one pass of a code, as Split hands them to
// each range: the output, the input, and scratch for the range's own
// use.
type Args struct {
	Dst, Src []byte
	Scratch  *Scratch
}

// Part is what a range of a pass returns, and what Split returns for
// the whole pass: the CRC-32C of the Len bytes of data the range
// covers, what its decode observed, and how many of its blocks or
// stripes it could not repair.
type Part struct {
	CRC    uint32
	Len    int
	Report Report
	Failed int
}

// Update continues p over b, the next bytes of the range's data.
func (p *Part) Update(b []byte) {
	p.CRC = crc32.Update(p.CRC, Castagnoli, b)
	p.Len += len(b)
}

// Split runs a pass of a code over n work items (steps, parity bytes,
// stripes) on workers goroutines and returns the ranges' parts joined
// in range order: CRCs with CombineCRC, reports with Report.Merge,
// Failed summed. This is every code's Workers rule: 0 or less means
// GOMAXPROCS, and a count above n is cut to n (parallel.Clamp). The
// ranges are parallel.Ranges' contiguous cut, so no output depends on
// the count.
//
// One worker runs run(c, a, 0, n) on the caller's goroutine. Otherwise
// each range runs with a nil Scratch, since a Scratch must not be
// shared between goroutines: a range that needs scratch brings its own.
//
// run is a method expression such as (*Code).encodeSteps, a static func
// value, and not a closure: a closure handed to a function that may
// pass it to goroutines is heap-allocated where it is made, so the
// one-worker pass, the chunk stream's steady state, would allocate on
// every call.
func Split[C any](c C, run func(C, Args, int, int) Part, a Args, n, workers int) Part {
	workers = parallel.Clamp(workers, n)
	if workers == 1 {
		return run(c, a, 0, n)
	}
	a.Scratch = nil
	parts := make([]Part, workers)
	parallel.Ranges(n, workers, func(w, lo, hi int) { parts[w] = run(c, a, lo, hi) })
	var sum Part
	for _, p := range parts {
		sum.CRC = CombineCRC(sum.CRC, p.CRC, p.Len)
		sum.Len += p.Len
		sum.Report.Merge(p.Report)
		sum.Failed += p.Failed
	}
	return sum
}
