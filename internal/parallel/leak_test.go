package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// drainDeadline is how long a leak check waits for spawned goroutines
// to exit before declaring a leak. Workers returned from For/ForErr
// before Wait unblocked, but the runtime may take a few scheduler
// ticks to actually retire them.
const drainDeadline = 2 * time.Second

// goroutinesSettleTo polls until the live goroutine count drops back
// to at most base, reporting whether it did within the deadline.
func goroutinesSettleTo(base int) bool {
	deadline := time.Now().Add(drainDeadline)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return false
}

func TestForLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var total atomic.Int64
	for iter := 0; iter < 50; iter++ {
		for _, workers := range []int{2, 4, 8, AnyWorkers} {
			For(1000, workers, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}
	}
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live after drain, started with %d",
			runtime.NumGoroutine(), base)
	}
	if total.Load() != 50*4*1000 {
		t.Fatalf("ranges did not cover [0,1000) every run: %d", total.Load())
	}
}

func TestForErrLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	sentinel := errors.New("sentinel")
	for iter := 0; iter < 50; iter++ {
		// Error and non-error paths must both join every worker.
		if err := ForErr(1000, 8, func(lo, hi int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		err := ForErr(1000, 8, func(lo, hi int) error {
			if lo == 0 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
	}
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live after drain, started with %d",
			runtime.NumGoroutine(), base)
	}
}

// TestForJoinIsSynchronous pins the contract that a worker returning
// normally can never be abandoned by an early return in the caller:
// For only returns after every worker is done, so the goroutine count
// is back to base the moment it does.
func TestForJoinIsSynchronous(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		For(8, 8, func(lo, hi int) { <-release })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("For returned before its workers finished")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-done
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked after join: %d live, started with %d",
			runtime.NumGoroutine(), base)
	}
}

// TestPanicReachesCaller: whichever range a panic happens in, the
// caller's recover sees it, and only after every other range has run:
// no worker outlives the call.
func TestPanicReachesCaller(t *testing.T) {
	const n = 8
	for bad := 0; bad < n; bad++ {
		for name, run := range map[string]func(body func(i int)){
			"For": func(body func(i int)) {
				For(n, n, func(lo, hi int) { body(lo) })
			},
			"ForErr": func(body func(i int)) {
				_ = ForErr(n, n, func(lo, hi int) error { body(lo); return nil })
			},
		} {
			var done atomic.Int64
			got := func() (r any) {
				defer func() { r = recover() }()
				run(func(i int) {
					defer done.Add(1)
					if i == bad {
						panic(fmt.Sprintf("range %d", i))
					}
				})
				return nil
			}()
			if got != fmt.Sprintf("range %d", bad) {
				t.Errorf("%s: range %d panicked; the caller recovered %v", name, bad, got)
			}
			if d := done.Load(); d != n {
				t.Errorf("%s: range %d panicked; %d of %d ranges had run when the caller saw it", name, bad, d, n)
			}
		}
	}
}
