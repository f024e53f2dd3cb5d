// Package faultinject implements the paper's fault-injection study
// harness (Section 4): it flips single bits in lossy-compressed data
// held in memory, attempts decompression in a sandbox, classifies the
// outcome into the paper's four return statuses, and computes the
// data-integrity metrics of every trial that completes.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/pressio"
)

// Status classifies a trial's return status (Section 4.2).
type Status int

const (
	// Completed: decompression succeeded with the error present — the
	// dangerous case, since downstream use propagates the corruption.
	Completed Status = iota
	// CompressorException: the compressor detected the damage and
	// returned an error.
	CompressorException
	// Terminated: the decompressor crashed (panicked).
	Terminated
	// Timeout: decompression exceeded the trial's time budget
	// (3x the average clean decompression time, per the paper).
	Timeout
)

var statusNames = [...]string{"Completed", "Compressor Exception", "Terminated", "Timeout"}

// String implements fmt.Stringer.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Statuses lists all statuses in display order.
func Statuses() []Status {
	return []Status{Completed, CompressorException, Terminated, Timeout}
}

// FlipBit returns a copy of buf with bit i (MSB-first within bytes)
// flipped. It panics if i is out of range.
func FlipBit(buf []byte, i int) []byte {
	if i < 0 || i >= len(buf)*8 {
		panic(fmt.Sprintf("faultinject: bit %d out of range [0,%d)", i, len(buf)*8))
	}
	mut := make([]byte, len(buf))
	copy(mut, buf)
	mut[i/8] ^= 0x80 >> (i % 8)
	return mut
}

// FlipBitInPlace flips bit i of buf directly.
func FlipBitInPlace(buf []byte, i int) {
	buf[i/8] ^= 0x80 >> (i % 8)
}

// decodeResult carries the sandboxed decompression outcome.
type decodeResult struct {
	data     []float64
	err      error
	panicked interface{}
	timedOut bool
	elapsed  time.Duration
}

// sandboxDecode runs the decompression with panic capture and a wall
// clock budget. A budget of 0 disables the timeout.
func sandboxDecode(c pressio.Compressor, buf []byte, budget time.Duration) decodeResult {
	done := make(chan decodeResult, 1)
	go func() {
		var res decodeResult
		start := time.Now()
		defer func() {
			if r := recover(); r != nil {
				res.panicked = r
				res.elapsed = time.Since(start)
			}
			done <- res
		}()
		data, _, err := c.Decompress(buf)
		res.data, res.err, res.elapsed = data, err, time.Since(start)
	}()
	if budget <= 0 {
		return <-done
	}
	select {
	case res := <-done:
		return res
	case <-time.After(budget):
		return decodeResult{timedOut: true, elapsed: budget}
	}
}

// TrialResult records one fault-injection trial.
type TrialResult struct {
	Bit    int
	Status Status
	// Metrics is valid only for Completed trials.
	Metrics metrics.Summary
	// BandwidthMBs is the decompression bandwidth (original MB /
	// decode seconds) of the trial.
	BandwidthMBs float64
	Elapsed      time.Duration
}

// timeoutFactor scales the average clean decode time into a trial's
// time budget (the paper's 3x).
const timeoutFactor = 3

// Config parameterizes a fault-injection campaign. Every bit of the
// compressed stream is tested, as in the paper's runs.
type Config struct {
	Compressor pressio.Compressor
	Data       []float64
	Dims       []int
	// MaxTrials caps the number of trials: a stream of more bits is
	// sampled uniformly, one bit per stratum (0 = every bit).
	MaxTrials int
	Seed      int64
	// Workers runs trials concurrently.
	Workers int
}

// Campaign is the result of a fault-injection study on one
// compressor/dataset configuration.
type Campaign struct {
	CompressorName string
	CompressedSize int
	OriginalSize   int
	Ratio          float64
	// Bound is the per-value error bound used for incorrect-element
	// accounting (for non-bounding modes, the control decode's maximum
	// absolute difference serves as the de facto bound).
	Bound float64
	// Control metrics from decoding the uncorrupted stream.
	Control      metrics.Summary
	ControlBWMBs float64
	Trials       []TrialResult
}

// Counts tallies trials by status.
func (c *Campaign) Counts() map[Status]int {
	m := make(map[Status]int, 4)
	for _, t := range c.Trials {
		m[t.Status]++
	}
	return m
}

// PercentByStatus returns the percentage of trials with the status.
func (c *Campaign) PercentByStatus(s Status) float64 {
	if len(c.Trials) == 0 {
		return 0
	}
	return 100 * float64(c.Counts()[s]) / float64(len(c.Trials))
}

// Run executes the campaign: compress once, measure the control
// decode, then flip each sampled bit and classify the outcome.
func Run(cfg Config) (*Campaign, error) {
	c := cfg.Compressor
	buf, err := c.Compress(cfg.Data, cfg.Dims)
	if err != nil {
		return nil, fmt.Errorf("faultinject: compress: %w", err)
	}
	camp := &Campaign{
		CompressorName: c.Name(),
		CompressedSize: len(buf),
		OriginalSize:   len(cfg.Data) * 8,
		Ratio:          float64(len(cfg.Data)*8) / float64(len(buf)),
	}

	// Control decode: averages over three runs set the timeout budget.
	var controlTime time.Duration
	var control []float64
	for i := 0; i < 3; i++ {
		res := sandboxDecode(c, buf, 0)
		if res.err != nil || res.panicked != nil {
			return nil, fmt.Errorf("faultinject: control decode failed: %v %v", res.err, res.panicked)
		}
		control = res.data
		controlTime += res.elapsed
	}
	controlTime /= 3
	camp.ControlBWMBs = mbPerSec(camp.OriginalSize, controlTime)

	// Error bound for incorrect-element accounting.
	if c.BoundsError() {
		camp.Bound = c.Bound()
	} else {
		camp.Bound = metrics.MaxDiff(cfg.Data, control)
	}
	camp.Control = metrics.Evaluate(cfg.Data, control, camp.Bound)

	budget := timeoutFactor * controlTime
	if budget < 10*time.Millisecond {
		budget = 10 * time.Millisecond // floor for timer resolution
	}

	bits := sampleBits(len(buf)*8, cfg.MaxTrials, cfg.Seed)
	camp.Trials = make([]TrialResult, len(bits))
	parallel.For(len(bits), cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			camp.Trials[i] = runTrial(c, buf, bits[i], cfg.Data, camp.Bound, budget, camp.OriginalSize)
		}
	})
	return camp, nil
}

func runTrial(c pressio.Compressor, buf []byte, bit int, orig []float64, bound float64, budget time.Duration, origSize int) TrialResult {
	mut := FlipBit(buf, bit)
	res := sandboxDecode(c, mut, budget)
	tr := TrialResult{Bit: bit, Elapsed: res.elapsed}
	switch {
	case res.timedOut:
		tr.Status = Timeout
		tr.Elapsed = budget
	case res.panicked != nil:
		tr.Status = Terminated
	case res.err != nil:
		tr.Status = CompressorException
	case len(res.data) != len(orig):
		// Wrong shape decodes cannot be compared pointwise; the
		// consumer would still notice, so treat as an exception.
		tr.Status = CompressorException
	default:
		tr.Status = Completed
		tr.Metrics = metrics.Evaluate(orig, res.data, bound)
		tr.BandwidthMBs = mbPerSec(origSize, res.elapsed)
	}
	return tr
}

// sampleBits picks every bit position, or a uniform sample of
// maxTrials of them when that is fewer.
func sampleBits(totalBits int, maxTrials int, seed int64) []int {
	if totalBits <= 0 {
		return nil
	}
	n := totalBits
	if maxTrials > 0 && n > maxTrials {
		n = maxTrials
	}
	if n >= totalBits {
		bits := make([]int, totalBits)
		for i := range bits {
			bits[i] = i
		}
		return bits
	}
	// Uniform stratified sampling: one bit per equal-width stratum,
	// jittered — matches the paper's "uniform sampling approach" while
	// covering the whole stream.
	rng := rand.New(rand.NewSource(seed))
	bits := make([]int, 0, n)
	stride := float64(totalBits) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * stride)
		hi := int(float64(i+1) * stride)
		if hi <= lo {
			hi = lo + 1
		}
		b := lo + rng.Intn(hi-lo)
		if b >= totalBits {
			b = totalBits - 1
		}
		bits = append(bits, b)
	}
	sort.Ints(bits)
	return bits
}

func mbPerSec(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}
