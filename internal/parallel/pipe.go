package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrPipeAborted reports that a Pipe was aborted: the item was not (or
// will not be) processed.
var ErrPipeAborted = errors.New("parallel: pipeline aborted")

// Pipe is a bounded, order-preserving parallel pipeline: Submit
// accepts items one at a time, a fixed pool of workers applies fn to
// them concurrently, and Next yields results strictly in submission
// order. At most `window` items are in flight, so memory stays bounded
// and a slow consumer backpressures the producer.
//
// Contract: exactly one goroutine calls Submit and Close (the
// producer), and exactly one goroutine calls Next (the consumer); the
// caller runs one side itself and hands the other to Go. The producer
// calls Close after its last Submit. The pipe then owns its shutdown:
// a consumer that drained Next to ok == false calls Wait, one that
// stops early calls Stop, and either way every worker and every Go
// goroutine is joined. Abort may be called from anywhere: it unblocks
// a producer stuck in Submit and makes workers skip remaining items.
//
// Steady-state Submit/Next round trips are allocation-free: job cells
// (including their completion channels) are recycled through an
// internal sync.Pool once the consumer has observed them.
type Pipe[I, O any] struct {
	// jobs feeds the workers; pending holds the same jobs in
	// submission order for the consumer. Both have capacity `window`,
	// and every job enters pending first, so neither send can block
	// once the pending send has gone through.
	jobs    chan *pipeJob[I, O]
	pending chan *pipeJob[I, O]
	quit    chan struct{}

	// free recycles consumed pipeJob cells. A job is only Put after
	// Next has read its result, at which point no worker or producer
	// references it.
	free sync.Pool

	aborted   atomic.Bool
	workers   sync.WaitGroup
	closeOnce sync.Once
	abortOnce sync.Once

	// helpers joins the goroutines Go started; err is the first error
	// one of them returned, read only after helpers is joined.
	helpers sync.WaitGroup
	errOnce sync.Once
	err     error
}

// pipeJob carries one item through the pipe. done is a one-slot
// buffered channel used as a reusable completion signal: exactly one
// send (by the completing side) and one receive (by the consumer) per
// trip through the pipe, so the cell can be pooled afterwards.
type pipeJob[I, O any] struct {
	in   I
	out  O
	err  error
	done chan struct{}
}

// NewPipe starts a pipeline with the given worker count (<= 0 means
// GOMAXPROCS) and in-flight window (raised to the worker count when
// smaller, so no worker is permanently idle).
func NewPipe[I, O any](workers, window int, fn func(I) (O, error)) *Pipe[I, O] {
	return NewPipeWith(workers, window,
		func() struct{} { return struct{}{} },
		func(in I, _ struct{}) (O, error) { return fn(in) })
}

// NewPipeWith is NewPipe with per-worker state: each worker goroutine
// calls newState exactly once on startup and passes its private state
// value to every fn invocation it runs. Because a state value is only
// ever touched by the goroutine that created it, fn can use it as a
// scratch arena (reusable buffers, cached lookups) without locks and
// without per-job allocation. newState runs on the worker goroutine
// itself, so lazily-initialized state lands in that worker's cache.
func NewPipeWith[I, O, S any](workers, window int, newState func() S, fn func(I, S) (O, error)) *Pipe[I, O] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if window < workers {
		window = workers
	}
	p := &Pipe[I, O]{
		jobs:    make(chan *pipeJob[I, O], window),
		pending: make(chan *pipeJob[I, O], window),
		quit:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			state := newState()
			for j := range p.jobs {
				if p.aborted.Load() {
					j.err = ErrPipeAborted
				} else {
					j.out, j.err = fn(j.in, state)
				}
				j.done <- struct{}{}
			}
		}()
	}
	return p
}

// getJob returns a recycled (or new) job cell with in set.
func (p *Pipe[I, O]) getJob(in I) *pipeJob[I, O] {
	if j, ok := p.free.Get().(*pipeJob[I, O]); ok {
		j.in = in
		return j
	}
	return &pipeJob[I, O]{in: in, done: make(chan struct{}, 1)}
}

// putJob recycles a fully-consumed job cell, dropping its payload
// references so pooled cells do not retain caller memory.
func (p *Pipe[I, O]) putJob(j *pipeJob[I, O]) {
	var zi I
	var zo O
	j.in, j.out, j.err = zi, zo, nil
	p.free.Put(j)
}

// Submit enqueues one item, blocking while the in-flight window is
// full. It returns ErrPipeAborted (without enqueueing) once the pipe
// has been aborted.
func (p *Pipe[I, O]) Submit(in I) error {
	if p.aborted.Load() {
		return ErrPipeAborted // the select below may still find a free slot
	}
	j := p.getJob(in)
	select {
	case p.pending <- j:
	case <-p.quit:
		p.putJob(j)
		return ErrPipeAborted
	}
	select {
	case p.jobs <- j:
	case <-p.quit:
		// The job is already visible to the consumer, so it must be
		// completed here: no worker is obliged to pick it up anymore.
		j.err = ErrPipeAborted
		j.done <- struct{}{}
	}
	return nil
}

// Close declares the end of input. The consumer can keep calling Next
// until it has drained every submitted item. Close is idempotent; it
// must not race with Submit (producer-only, like Submit itself).
func (p *Pipe[I, O]) Close() {
	p.closeOnce.Do(func() {
		close(p.pending)
		close(p.jobs)
	})
}

// Next returns the next result in submission order, blocking until it
// is ready. ok == false means the pipe was closed and fully drained.
// A per-item error (including ErrPipeAborted for items cancelled by
// Abort) is returned alongside the item's output.
func (p *Pipe[I, O]) Next() (out O, ok bool, err error) {
	j, ok := <-p.pending
	if !ok {
		var zero O
		return zero, false, nil
	}
	<-j.done
	out, err = j.out, j.err
	p.putJob(j)
	return out, true, err
}

// Abort cancels the pipeline: a blocked or future Submit fails with
// ErrPipeAborted and workers skip items they have not started. Items
// already being processed run to completion (fn is never interrupted
// mid-call). Abort is idempotent and safe from any goroutine.
func (p *Pipe[I, O]) Abort() {
	p.abortOnce.Do(func() {
		p.aborted.Store(true)
		close(p.quit)
	})
}

// Go runs f, the side of the pipe the caller does not run itself (its
// producer or its consumer), on a goroutine that Wait and Stop join. A
// producer run by Go calls Close before it returns. An error f returns
// does not abort the pipe: a producer that returns io.EOF, or a
// malformed input, has ended it, and the consumer still receives every
// item submitted before.
func (p *Pipe[I, O]) Go(f func() error) {
	p.helpers.Add(1)
	go func() {
		defer p.helpers.Done()
		if err := f(); err != nil {
			p.errOnce.Do(func() { p.err = err })
		}
	}()
}

// Wait joins the goroutines started with Go and the workers, and
// returns the first error one of those goroutines returned (io.EOF
// included). Call it once the producer has closed the pipe: after the
// consumer drained it, or from the producer after Close. Wait may be
// called again and returns the same error.
func (p *Pipe[I, O]) Wait() error {
	p.helpers.Wait()
	p.workers.Wait()
	return p.err
}

// Stop is the consumer's early exit: it aborts the pipe, passes each
// result not yet delivered by Next to drop (when drop is non-nil;
// items the abort cancelled arrive as O's zero value), and then does
// what Wait does. The producer must still close the pipe, which it
// does promptly, since Submit fails once the pipe is aborted.
func (p *Pipe[I, O]) Stop(drop func(O)) error {
	p.Abort()
	for {
		out, ok, _ := p.Next()
		if !ok {
			break
		}
		if drop != nil {
			drop(out)
		}
	}
	return p.Wait()
}
