package main

// Host calibration. The reference host is a two-CPU virtual machine on
// a shared server, and what its neighbours do to the cores and caches
// it shares with them slows every call into ARC by 10-40 % for seconds
// to minutes at a time: recorded samples of one process spread 18-25 %
// between consecutive 25-second windows, wider than any bound this
// benchmark may set. The clock is not what moves (a register-only loop
// barely follows the slowdown). A loop of loads does: the host probe
// below reads 8 MiB of address space that the kernel backs with its one
// zero page, so it streams through the load ports, the first-level
// cache and the TLB and leaves nothing behind in the caches, and its
// time follows the slowdown of ARC's own code closely, whatever ran
// just before it (a probe that reads real memory measures how much of
// its buffer the last call evicted, and made things worse).
//
// So every timed sample is bracketed by host probes and reported in
// calibrated seconds: its wall time scaled to what it would have been
// with the probe at a fixed reference time. On the recorded samples
// this brings the window-to-window spread of the file operations from
// 18-25 % to 4-7 % on a busy host, and from 5-14 % to 3-8 % between
// ten runs on a quiet one. Two operations that mostly copy through the
// kernel, protect-rs's clean load and its save, gain nothing from it:
// the probe follows ARC's code better than the kernel's. Raw wall-clock
// values are kept in every record beside the calibrated ones.

import (
	"syscall"
	"time"
)

const (
	probeBytes  = 8 << 20
	probePasses = 4
	// probeRef is the probe time calibrated seconds refer to, 0.5 ms a
	// pass: the middle of what the reference host gives during a run
	// (0.4 ms at its quietest, 0.8 ms at its busiest). A host in that
	// state reports calibrated times equal to its wall times.
	probeRef = probePasses * 0.5e-3
)

var (
	probeSink uint64 // keeps the probe's sum alive
	// probeBuf is mapped read-only and never written, so every page of it
	// is the kernel's zero page.
	probeBuf = mapZeroPages(probeBytes)
)

func mapZeroPages(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: cannot map the host probe's buffer: " + err.Error())
	}
	for i := 0; i < n; i += 512 {
		probeSink += uint64(b[i]) // map every page now, not in the first probe
	}
	return b
}

// probeLog holds the seconds of every host probe of the run, in order.
// Only the goroutine that runs the workload probes.
var probeLog []float64

// hostProbe reads the probe buffer probePasses times, a word of every
// eight bytes, enters the seconds it took (about 2 ms) in probeLog and
// returns their index.
func hostProbe() int {
	t0 := time.Now()
	var s uint64
	for pass := 0; pass < probePasses; pass++ {
		for i := 0; i+8 <= len(probeBuf); i += 8 {
			s += uint64(probeBuf[i])
		}
	}
	probeSink += s
	probeLog = append(probeLog, time.Since(t0).Seconds())
	return len(probeLog) - 1
}

// probeSpan is how many probes beyond its own two calibrate a sample
// on either side. One probe is as noisy as the host is from one
// millisecond to the next; the host's state lasts longer than that, and
// the mean of ten probes taken within a few hundred milliseconds
// follows it better than the mean of two (ckpt's ten-run spreads fell
// from 6-9 % to 3-5 %).
const probeSpan = 4

// hostAround is the host's state around a sample whose first and last
// probes are given: the mean probe time from probeSpan probes before
// the first to probeSpan after the last. It reads probes entered after
// the sample, so it is called once the run is over.
func hostAround(first, last int) float64 {
	lo, hi := max(first-probeSpan, 0), min(last+probeSpan+1, len(probeLog))
	var sum float64
	for _, p := range probeLog[lo:hi] {
		sum += p
	}
	return sum / float64(hi-lo)
}

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// sample is one timed call between two host probes.
type sample struct {
	secs        float64
	first, last int // the probes just before and just after
}

// sampled runs f as one sample.
func sampled(f func()) sample {
	first := hostProbe()
	secs := timed(f)
	return sample{secs: secs, first: first, last: hostProbe()}
}

// probe is the host's state around the sample, in probe seconds.
func (s sample) probe() float64 { return hostAround(s.first, s.last) }

// calibrated is the sample's time at the reference host speed.
func (s sample) calibrated() float64 { return s.secs * probeRef / s.probe() }
