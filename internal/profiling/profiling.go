// Package profiling wires the conventional -cpuprofile/-memprofile
// flags into a command's flag set and manages the runtime/pprof
// sessions behind them. Both cmd/arc and cmd/arcstudy use it, so the
// chunk hot path and every experiment can be profiled with the same
// switches `go test` uses:
//
//	arc encode -in f -out f.arc -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package profiling

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations registered by AddFlags.
type Flags struct {
	cpu string
	mem string
}

// AddFlags registers -cpuprofile and -memprofile on fs and returns the
// holder to Start later.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap allocation profile to `file` on exit")
	return f
}

// Start begins CPU profiling when requested. The returned stop
// function ends the CPU profile and writes the heap profile; call it
// after the measured work and propagate its error — a profile the
// user asked for but that failed to land on disk should fail the
// command, not vanish into a log line. Commands that defer it fold
// the error into a named return so the exit status reflects it.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if f.cpu != "" {
		cpuFile, err = os.Create(f.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close() // the StartCPUProfile error is the one to report
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if f.mem != "" {
			if err := writeHeapProfile(f.mem); err != nil {
				errs = append(errs, fmt.Errorf("memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeapProfile snapshots the live heap to path.
func writeHeapProfile(path string) error {
	mf, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush recently freed objects so live-heap numbers are current
	if err := pprof.WriteHeapProfile(mf); err != nil {
		_ = mf.Close() // the profile is already lost; report the write error
		return err
	}
	return mf.Close()
}
