package experiments

import (
	"fmt"
	"io"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
)

// HonestyResult is the constraint-honesty check: for a grid of
// (mem, bw, res) requests, what EncodeFile stored and how fast it ran
// next to what was asked and what the optimizer promised.
type HonestyResult struct {
	SampleBytes int
	Rows        []HonestyRow
}

// HonestyRow is one request and its outcome.
type HonestyRow struct {
	Mem, BW float64
	Res     string

	Config          string
	Threads         int
	OverBudget      bool
	UnderThroughput bool

	ChoiceOverhead   float64 // the configuration's asymptotic overhead
	RealizedOverhead float64 // (stored - plain) / plain, framing and index included
	PredictedMBs     float64 // the measured point the choice rests on
	AchievedMBs      float64 // median EncodeFile throughput, file I/O included
}

// Kept reports whether the run honoured what the choice claimed: the
// stored file within the budget unless flagged OverBudget, and — when
// timed is set — at least half the bound unless flagged
// UnderThroughput (half: EncodeFile adds file I/O to the codec the
// table rates, on a shared host).
func (r HonestyRow) Kept(timed bool) bool {
	if !r.OverBudget && r.RealizedOverhead > r.Mem {
		return false
	}
	return !timed || r.UnderThroughput || r.AchievedMBs >= 0.5*r.BW
}

// honestyMems are the grid's storage budgets.
var honestyMems = []float64{0.07, 0.2, 1.0, core.AnyMem}

var honestyResiliencies = []struct {
	name string
	res  core.Resiliency
}{
	{"any", core.AnyECC},
	{"1 err/MB", core.Resiliency{ErrorsPerMB: 1}},
	{"rs", core.Resiliency{Methods: []ecc.Method{ecc.MethodReedSolomon}}},
}

// encodeFile is arc.EncodeFile (file to indexed v2 archive through the
// engine's chunk writer with default options), restated over the core
// engine because the root package's benchmarks import this one.
func encodeFile(eng *core.Engine, src, dst string, mem, bw float64, res core.Resiliency) (core.Choice, int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return core.Choice{}, 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return core.Choice{}, 0, err
	}
	w, err := eng.NewChunkWriterWith(out, mem, bw, res, core.StreamOptions{Indexed: true})
	if err == nil {
		_, err = io.Copy(w, in)
		if cerr := w.Close(); err == nil { // Close joins in-flight encodes on either path
			err = cerr
		}
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return core.Choice{}, 0, err
	}
	return w.Choice(), w.BytesWritten(), nil
}

// Honesty runs the grid on a fresh engine (no cache, default training
// sample, so each request measures the points it needs at chunk size):
// every request encodes a sampleBytes file reps times and keeps the
// median throughput.
func Honesty(maxThreads, sampleBytes, reps int, bws []float64) (*HonestyResult, error) {
	if sampleBytes <= 0 {
		sampleBytes = 16 << 20
	}
	if reps < 1 {
		reps = 3
	}
	if len(bws) == 0 {
		bws = []float64{core.AnyBW, 25, 250}
	}
	eng, err := core.NewEngine(core.EngineOptions{MaxThreads: maxThreads, CacheDir: "-"})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	dir, err := os.MkdirTemp("", "arc-honesty-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	plain := make([]byte, sampleBytes)
	mrand.New(mrand.NewSource(22)).Read(plain)
	src, dst := filepath.Join(dir, "plain.bin"), filepath.Join(dir, "stored.arc")
	if err := os.WriteFile(src, plain, 0o644); err != nil {
		return nil, err
	}
	out := &HonestyResult{SampleBytes: sampleBytes}
	for _, rc := range honestyResiliencies {
		for _, mem := range honestyMems {
			for _, bw := range bws {
				var choice core.Choice
				var stored int64
				secs := make([]float64, reps)
				for i := range secs {
					t0 := time.Now()
					if choice, stored, err = encodeFile(eng, src, dst, mem, bw, rc.res); err != nil {
						return nil, fmt.Errorf("honesty mem=%g bw=%g res=%s: %w", mem, bw, rc.name, err)
					}
					secs[i] = time.Since(t0).Seconds()
				}
				sort.Float64s(secs)
				out.Rows = append(out.Rows, HonestyRow{
					Mem: mem, BW: bw, Res: rc.name,
					Config: choice.Config.String(), Threads: choice.Threads,
					OverBudget: choice.OverBudget, UnderThroughput: choice.UnderThroughput,
					ChoiceOverhead:   choice.Overhead,
					RealizedOverhead: float64(stored-int64(sampleBytes)) / float64(sampleBytes),
					PredictedMBs:     choice.PredictedEncMBs,
					AchievedMBs:      float64(sampleBytes) / (1 << 20) / secs[reps/2],
				})
			}
		}
	}
	return out, nil
}

// Table renders the grid.
func (r *HonestyResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Constraint honesty: EncodeFile of %d MiB, request vs outcome", r.SampleBytes>>20),
		Header: []string{"res", "mem", "bw MB/s", "config", "threads", "flags",
			"choice ovh", "stored ovh", "predicted MB/s", "achieved MB/s", "kept"},
		Caption: "kept: stored overhead <= mem unless flagged over, and achieved >= 0.5 x bw unless\n" +
			"flagged under. The first request of a row's configuration pays its measurement.",
	}
	anyOr := func(v, lifted float64) string {
		if v == lifted {
			return "any"
		}
		return f2(v)
	}
	for _, row := range r.Rows {
		flags := ""
		if row.OverBudget {
			flags += "over "
		}
		if row.UnderThroughput {
			flags += "under"
		}
		kept := "yes"
		if !row.Kept(true) {
			kept = "NO"
		}
		t.AddRow(row.Res, anyOr(row.Mem, core.AnyMem), anyOr(row.BW, core.AnyBW), row.Config, iS(row.Threads), flags,
			f3(row.ChoiceOverhead), f3(row.RealizedOverhead), f1(row.PredictedMBs), f1(row.AchievedMBs), kept)
	}
	return t
}
