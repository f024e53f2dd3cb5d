// Package parallel provides a chunked parallel-for over index ranges
// with an explicit worker count. It is the repository's stand-in for
// the OpenMP thread-level parallelism ARC uses: a worker count of w
// corresponds to running with w OpenMP threads.
//
// The split is deterministic — workers own contiguous, near-equal
// ranges — so encoded output layout never depends on the worker count.
package parallel

import (
	"runtime"
	"sync"
)

// AnyWorkers requests as many workers as the runtime will schedule
// (the paper's ARC_ANY_THREADS).
const AnyWorkers = 0

// Clamp normalizes a requested worker count: AnyWorkers (or anything
// non-positive) becomes runtime.GOMAXPROCS(0), and counts above n are
// reduced to n so no worker owns an empty range.
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For splits [0, n) into `workers` contiguous ranges and invokes body
// on each range concurrently. body(lo, hi) must be safe to run in
// parallel with other ranges. For blocks until all ranges complete.
//
// A worker count of 1 (or n <= 1) runs inline with no goroutines, so
// serial paths pay no synchronization cost. A panic in body is raised
// again on the caller's goroutine once every range has finished, so a
// recover around the call sees it as it would a serial loop's.
func For(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		body(0, n)
		return
	}
	Ranges(n, workers, func(_, lo, hi int) { body(lo, hi) })
}

// ForErr is For with error collection: the first non-nil error (by
// range order) is returned after all workers finish. Workers do not
// cancel each other; ranges are independent by contract. A panic
// reaches the caller as For's does.
func ForErr(n, workers int, body func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		return body(0, n)
	}
	errs := make([]error, workers)
	Ranges(n, workers, func(w, lo, hi int) { errs[w] = body(lo, hi) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ranges cuts [0, n) into workers contiguous, near-equal ranges, runs
// run(w, lo, hi) for range w on its own goroutine, and returns once
// every range is done, raising the first panic among them. It is the
// indexed form For and ForErr are built on; like them, its callers
// Clamp workers first and run a single range inline.
func Ranges(n, workers int, run func(w, lo, hi int)) {
	var j join
	chunk, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		j.Add(1)
		go func(w, lo, hi int) {
			defer j.done()
			run(w, lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	j.wait()
}

// join waits for a set of workers and carries the first panic among
// them back to the goroutine that waits.
type join struct {
	sync.WaitGroup
	once     sync.Once
	panicked any
}

// done is deferred by each worker in place of Done: it stops the
// worker's panic, keeping the first one, and marks the worker done.
func (j *join) done() {
	if r := recover(); r != nil {
		j.once.Do(func() { j.panicked = r })
	}
	j.Done()
}

// wait waits for every worker, then raises the kept panic, if any.
func (j *join) wait() {
	j.Wait()
	if j.panicked != nil {
		panic(j.panicked)
	}
}
