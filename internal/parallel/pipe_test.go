package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func TestPipePreservesOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	// Workers that finish out of order (later items are faster) must
	// still deliver in submission order.
	p := NewPipe(4, 4, func(i int) (int, error) {
		time.Sleep(time.Duration(50-i) * time.Microsecond)
		return i * i, nil
	})
	p.Go(func() error {
		defer p.Close()
		for i := 0; i < 50; i++ {
			if err := p.Submit(i); err != nil {
				return fmt.Errorf("submit %d: %w", i, err)
			}
		}
		return nil
	})
	for i := 0; i < 50; i++ {
		out, ok, err := p.Next()
		if !ok || err != nil {
			t.Fatalf("next %d: ok=%v err=%v", i, ok, err)
		}
		if out != i*i {
			t.Fatalf("out of order: got %d at position %d, want %d", out, i, i*i)
		}
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("Next after drain must report done")
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
	}
}

func TestPipeCarriesPerItemErrors(t *testing.T) {
	sentinel := errors.New("sentinel")
	p := NewPipe(2, 2, func(i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	p.Go(func() error {
		defer p.Close()
		for i := 0; i < 6; i++ {
			if err := p.Submit(i); err != nil {
				return err
			}
		}
		return nil
	})
	for i := 0; i < 6; i++ {
		out, ok, err := p.Next()
		if !ok {
			t.Fatal("pipe ended early")
		}
		if i == 3 {
			if !errors.Is(err, sentinel) {
				t.Fatalf("item 3: err = %v, want sentinel", err)
			}
			continue
		}
		if err != nil || out != i {
			t.Fatalf("item %d: out=%d err=%v", i, out, err)
		}
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("Next after drain must report done")
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait = %v: a per-item error is not the producer's", err)
	}
}

func TestPipeAbortUnblocksSubmit(t *testing.T) {
	base := runtime.NumGoroutine()
	block := make(chan struct{})
	p := NewPipe(1, 1, func(i int) (int, error) {
		<-block
		return i, nil
	})
	submitted := make(chan error, 1)
	go func() {
		var err error
		// The window is 1, so one of these must block until Abort.
		for i := 0; i < 8 && err == nil; i++ {
			err = p.Submit(i)
		}
		submitted <- err
		p.Close()
	}()
	time.Sleep(20 * time.Millisecond) // let the producer hit the full window
	p.Abort()
	close(block)
	if err := <-submitted; !errors.Is(err, ErrPipeAborted) {
		t.Fatalf("blocked Submit after Abort = %v, want ErrPipeAborted", err)
	}
	// Drain: every submitted job must still complete (possibly with
	// ErrPipeAborted), and the pipe must then be clean.
	for {
		_, ok, _ := p.Next()
		if !ok {
			break
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
	}
}

func TestPipeAbortCancelsUnstartedWork(t *testing.T) {
	var ran atomic.Int64
	p := NewPipe(1, 8, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			// Give the producer time to fill the window behind us.
			time.Sleep(50 * time.Millisecond)
		}
		return i, nil
	})
	for i := 0; i < 8; i++ {
		if err := p.Submit(i); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	p.Abort()
	p.Close()
	aborted := 0
	for {
		_, ok, err := p.Next()
		if !ok {
			break
		}
		if errors.Is(err, ErrPipeAborted) {
			aborted++
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if aborted == 0 {
		t.Fatal("abort cancelled no queued work")
	}
	if got := ran.Load(); got+int64(aborted) != 8 {
		t.Fatalf("ran %d + aborted %d != 8 submitted", got, aborted)
	}
}

func TestPipeSingleWorkerDefaultsAndZeroItems(t *testing.T) {
	p := NewPipe(0, 0, func(s string) (string, error) { return s, nil })
	p.Close()
	if _, ok, _ := p.Next(); ok {
		t.Fatal("empty closed pipe must be done")
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// workerScratch is deliberately non-atomic: if two Pipe workers ever
// shared one state value, the race detector would flag the unsynchronized
// hits increments and the hits totals would be corrupted.
type workerScratch struct {
	id   int64
	hits int
	buf  []byte
}

func TestPipeWithPerWorkerState(t *testing.T) {
	const workers, items = 4, 400
	var created atomic.Int64
	var mu chan struct{} // buffered-1 channel used as a mutex for the registry
	mu = make(chan struct{}, 1)
	registry := make(map[*workerScratch]bool)

	p := NewPipeWith(workers, workers,
		func() *workerScratch {
			s := &workerScratch{id: created.Add(1), buf: make([]byte, 64)}
			mu <- struct{}{}
			registry[s] = true
			<-mu
			return s
		},
		func(i int, s *workerScratch) (int64, error) {
			s.hits++ // unsynchronized on purpose: state must be worker-private
			for k := range s.buf {
				s.buf[k] = byte(i)
			}
			return s.id, nil
		})
	p.Go(func() error {
		defer p.Close()
		for i := 0; i < items; i++ {
			if err := p.Submit(i); err != nil {
				return err
			}
		}
		return nil
	})
	seen := make(map[int64]bool)
	for {
		id, ok, err := p.Next()
		if !ok {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		seen[id] = true
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	if got := created.Load(); got != workers {
		t.Fatalf("newState called %d times, want exactly %d (once per worker)", got, workers)
	}
	if len(registry) != workers {
		t.Fatalf("%d distinct state values, want %d", len(registry), workers)
	}
	total := 0
	for s := range registry {
		total += s.hits
	}
	if total != items {
		t.Fatalf("per-worker hit counts sum to %d, want %d (lost or doubled updates imply shared state)", total, items)
	}
	if len(seen) == 0 || len(seen) > workers {
		t.Fatalf("results reported %d worker ids, want between 1 and %d", len(seen), workers)
	}
}

// TestPipeSteadyStateAllocFree pins the pooled-job design: after
// warm-up, a Submit/Next round trip through the pipe performs no
// allocations on the producer/consumer goroutine. (Worker-side costs
// are fn's business; here fn does nothing.)
func TestPipeSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	p := NewPipe(1, 1, func(i int) (int, error) { return i, nil })
	defer func() {
		p.Close()
		if err := p.Stop(nil); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 64; i++ { // warm the job pool
		if err := p.Submit(i); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := p.Next(); !ok || err != nil {
			t.Fatalf("warmup next: ok=%v err=%v", ok, err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := p.Submit(7); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := p.Next(); !ok || err != nil {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
	})
	if avg > 0.1 {
		t.Fatalf("steady-state Submit/Next allocates %.2f allocs/op, want ~0", avg)
	}
}

func TestPipeStressLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		p := NewPipe(4, 8, func(i int) (string, error) {
			return fmt.Sprint(i), nil
		})
		p.Go(func() error {
			defer p.Close()
			for i := 0; i < 100; i++ {
				if p.Submit(i) != nil {
					break // aborted mid-stream below
				}
			}
			return nil
		})
		n := 0
		for {
			_, ok, _ := p.Next()
			if !ok {
				break
			}
			n++
			if n == 30 && iter%2 == 1 {
				p.Abort() // abandon mid-stream every other iteration
			}
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
	}
}

// TestPipeSubmitAfterAbortFails: once Abort has returned, Submit
// refuses every item, even with free room in the window.
func TestPipeSubmitAfterAbortFails(t *testing.T) {
	const n = 1000
	p := NewPipe(1, n, func(i int) (int, error) { return i, nil })
	p.Abort()
	enqueued := 0
	for i := 0; i < n; i++ {
		if err := p.Submit(i); err == nil {
			enqueued++
		} else if !errors.Is(err, ErrPipeAborted) {
			t.Fatalf("Submit after Abort = %v, want ErrPipeAborted", err)
		}
	}
	p.Close()
	if err := p.Stop(nil); err != nil {
		t.Fatal(err)
	}
	if enqueued != 0 {
		t.Fatalf("%d of %d Submits after Abort enqueued their item", enqueued, n)
	}
}

// TestPipeWaitReturnsGoError: the error a Go function returns reaches
// Wait, and it is no abort: the consumer still receives every item
// submitted before it.
func TestPipeWaitReturnsGoError(t *testing.T) {
	base := runtime.NumGoroutine()
	sentinel := errors.New("sentinel")
	p := NewPipe(2, 2, func(i int) (int, error) { return i, nil })
	p.Go(func() error {
		defer p.Close()
		for i := 0; i < 20; i++ {
			if err := p.Submit(i); err != nil {
				return err
			}
		}
		return sentinel
	})
	for i := 0; ; i++ {
		out, ok, err := p.Next()
		if !ok {
			if i != 20 {
				t.Fatalf("pipe ended after %d of 20 items", i)
			}
			break
		}
		if err != nil || out != i {
			t.Fatalf("item %d: out=%d err=%v", i, out, err)
		}
	}
	if err := p.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("Wait = %v, want the producer's error", err)
	}
	if err := p.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("second Wait = %v, want the same error", err)
	}
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
	}
}

// TestPipeStopUnblocksProducer: a consumer that quits while the
// producer is blocked in Submit on a full window calls Stop, which
// returns, hands each undelivered result to drop exactly once, and
// leaves no goroutine behind.
func TestPipeStopUnblocksProducer(t *testing.T) {
	base := runtime.NumGoroutine()
	type item struct{ i int }
	p := NewPipe(1, 2, func(i int) (*item, error) { return &item{i}, nil })
	var accepted atomic.Int64
	p.Go(func() error {
		defer p.Close()
		for i := 0; i < 100; i++ {
			if err := p.Submit(i); err != nil {
				return err
			}
			accepted.Add(1)
		}
		return nil
	})
	if out, ok, err := p.Next(); !ok || err != nil || out.i != 0 {
		t.Fatalf("first item: out=%v ok=%v err=%v", out, ok, err)
	}
	// Items 1 and 2 fill the window of 2, so Submit(3) blocks.
	for deadline := time.Now().Add(drainDeadline); accepted.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("producer stalled after %d Submits, want 3", accepted.Load())
		}
	}

	dropped := map[int]int{}
	cancelled := 0
	stopped := make(chan error, 1)
	go func() {
		stopped <- p.Stop(func(it *item) {
			if it == nil {
				cancelled++ // an item the abort cancelled
				return
			}
			dropped[it.i]++
		})
	}()
	select {
	case err := <-stopped:
		if !errors.Is(err, ErrPipeAborted) {
			t.Fatalf("Stop = %v, want the producer's refused Submit", err)
		}
	case <-time.After(drainDeadline):
		t.Fatal("Stop did not return with the producer blocked in Submit")
	}
	for i, n := range dropped {
		if n != 1 || i < 1 {
			t.Fatalf("item %d dropped %d times", i, n)
		}
	}
	if got, want := int64(1+len(dropped)+cancelled), accepted.Load(); got != want {
		t.Fatalf("1 delivered + %d dropped + %d cancelled != %d accepted", len(dropped), cancelled, want)
	}
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
	}
}
