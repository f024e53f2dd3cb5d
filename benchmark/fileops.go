package main

// The file phase: save, load and repair every protected file of a
// workload, timing only the calls into ARC and checking every output
// against ground truth outside the timed windows.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"time"

	arc "repro"
)

// tally counts operations attempted and failed. An operation fails on
// an unexpected error, wrong bytes, a violated error bound, a repair
// report that disagrees with what was injected, or an over-budget
// fault that was not reported. silent counts the failures in which the
// system answered OK with wrong content: the outcome ARC exists to
// prevent.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Silent    int      `json:"silent_mismatches"`
	Failures  []string `json:"failures,omitempty"` // the first few, for diagnosis
}

func (t *tally) fail(err error, silent bool) {
	t.Failed++
	if silent {
		t.Silent++
	}
	if len(t.Failures) < 8 {
		t.Failures = append(t.Failures, err.Error())
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Silent += o.Silent
	for _, f := range o.Failures {
		if len(t.Failures) < 8 {
			t.Failures = append(t.Failures, f)
		}
	}
}

const (
	opSave   = "save"
	opLoad   = "load"
	opRepair = "repair"
)

var fileOps = []string{opSave, opLoad, opRepair}

// opTimes holds the timed calls of one operation: per item, one sample
// per iteration.
type opTimes [][]sample

// perIteration sums the items of each iteration, in calibrated
// seconds.
func (o opTimes) perIteration() []float64 {
	if len(o) == 0 {
		return nil
	}
	out := make([]float64, len(o[0]))
	for _, item := range o {
		for i, s := range item {
			out[i] += s.calibrated()
		}
	}
	return out
}

// seconds is the operation's calibrated time over all items: the sum
// of each item's lower quartile. Every iteration repeats the same call
// on the same input, so what varies between an item's samples is the
// host, and it only ever adds time: on two CPUs the kernel hands a
// writer pages another CPU has just freed or, as often, pages the
// hypervisor must first back with memory, which triples a save. The
// lower quartile stays inside the undisturbed samples where the median
// moves with the share of disturbed ones (protect-secded's save_mb_s
// spread 22 % between ten runs by medians, 6 % by lower quartiles),
// and unlike the minimum it does not rest on one sample.
func (o opTimes) seconds() float64 {
	return o.sumOver(sample.calibrated)
}

// rawSeconds is seconds in uncalibrated wall time.
func (o opTimes) rawSeconds() float64 {
	return o.sumOver(func(s sample) float64 { return s.secs })
}

func (o opTimes) sumOver(of func(sample) float64) float64 {
	var t float64
	for _, item := range o {
		xs := make([]float64, len(item))
		for i, s := range item {
			xs[i] = of(s)
		}
		t += lowerQuartile(xs)
	}
	return t
}

// checkSave verifies what a save reported: the ECC configuration the
// workload is defined on, and a stored size that repeats exactly.
func (p *protected) checkSave(choice arc.Choice, stored int64) error {
	if got := choice.Config.String(); got != p.config {
		return fmt.Errorf("%s: save chose %s, want %s", p.name, got, p.config)
	}
	if stored != p.stored {
		return fmt.Errorf("%s: save stored %d bytes, the first save %d", p.name, stored, p.stored)
	}
	return nil
}

// checkLoad verifies a load: no error, the repair report equal to
// what was injected into the file, and the output equal to ground
// truth. It reports whether a failure was silent (OK with wrong
// content).
func (p *protected) checkLoad(rep arc.StreamReport, err error, want repairs) (error, bool) {
	if err != nil {
		return fmt.Errorf("%s: load: %w", p.name, err), false
	}
	if verr := p.verify(); verr != nil {
		return verr, true
	}
	if !want.matches(rep.DetectedBlocks, rep.CorrectedBits, rep.CorrectedBlocks) {
		return fmt.Errorf("%s: repair report %+v, injected %+v", p.name, rep, want), false
	}
	return nil, false
}

// fileVariant is one way of issuing the three file operations: the
// public calls with default options, the same calls made sequential,
// or the harness's staged form. A variant that times the operation
// itself (the staged form, whose ECC replay is not part of it) returns
// that time; the others return 0 and the call's wall time counts.
type fileVariant struct {
	save func(p *protected) (arc.Choice, int64, time.Duration, error)
	load func(p *protected, kind, path string) (arc.StreamReport, time.Duration, error)
}

// defaultVariant is what a user gets: zero-valued stream options and
// nproc workers.
func (e *env) defaultVariant() fileVariant {
	return fileVariant{
		save: func(p *protected) (arc.Choice, int64, time.Duration, error) {
			c, n, err := p.save(e.a, p.path, arc.StreamOptions{})
			return c, n, 0, err
		},
		load: func(p *protected, _, path string) (arc.StreamReport, time.Duration, error) {
			rep, err := p.load(path, e.nproc, arc.StreamOptions{})
			return rep, 0, err
		},
	}
}

// fileIteration runs save, load and repair once over every item
// through v, appends the samples to times and checks every output.
// Every sample starts from a collected heap, so that no call pays for
// the garbage of the one before and a collection never falls inside
// one sample and not the next. And every call creates the file it
// writes, the previous iteration's having been removed outside the
// timed window: ext4 answers the truncation of an existing file by
// flushing the new contents to disk as soon as it is closed
// (auto_da_alloc), and that write-back then runs beside the next
// sample on the same two CPUs.
func (e *env) fileIteration(v fileVariant, times map[string]opTimes, t *tally) {
	for _, op := range fileOps {
		if times[op] == nil {
			times[op] = make(opTimes, len(e.items))
		}
		for i, p := range e.items {
			var err error
			var silent bool
			var smp sample
			var own time.Duration
			runtime.GC()
			switch op {
			case opSave:
				var choice arc.Choice
				var stored int64
				rmErr := removeOld(p.path)
				smp = sampled(func() { choice, stored, own, err = v.save(p) })
				if err == nil {
					err = rmErr
				}
				if err == nil {
					err = p.checkSave(choice, stored)
				}
			case opLoad, opRepair:
				path, want := p.path, repairs{}
				if op == opRepair {
					path, want = p.faulty, p.want
				}
				rmErr := removeOld(p.out)
				var rep arc.StreamReport
				smp = sampled(func() { rep, own, err = v.load(p, op, path) })
				if err == nil {
					err = rmErr
				}
				err, silent = p.checkLoad(rep, err, want)
			}
			if own > 0 {
				smp.secs = own.Seconds()
			}
			times[op][i] = append(times[op][i], smp)
			t.Attempted++
			if err != nil {
				t.fail(err, silent)
			}
		}
	}
}

// removeOld removes the file an operation is about to create; a file
// item's output does not exist before its first load.
func removeOld(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// keepGoing reports whether iteration i (from 0) should run: always
// below the minimum, and after it while one more iteration of the
// average length still fits the budget.
func keepGoing(i, minIters int, start time.Time, budget time.Duration) bool {
	if i < minIters {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(i) <= budget
}
