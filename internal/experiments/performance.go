package experiments

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ecc"
	"repro/internal/failmodel"
	"repro/internal/faultinject"
	"repro/internal/pressio"
	"repro/internal/sz"
)

// buildEngine constructs a throwaway engine with a small training
// sample — experiments retrain per run to stay self-contained.
func buildEngine(maxThreads, sampleBytes int) (*core.Engine, error) {
	if sampleBytes <= 0 {
		sampleBytes = 256 << 10
	}
	return core.NewEngine(core.EngineOptions{MaxThreads: maxThreads, CacheDir: "-", SampleBytes: sampleBytes})
}

// studyPayload compresses the CESM-like field with SZ-ABS eps=0.1,
// the input Figures 11-12 protect. Compressed checkpoints this small
// would exaggerate fixed per-stripe costs, so the stream is repeated
// to at least 512 KiB — the paper's CESM input is a 25.82 MB field
// whose compressed form is far beyond that.
func studyPayload(scale int, seed int64) ([]byte, error) {
	f := datasets.CESM(32*scale, 64*scale, seed)
	one, err := sz.Compress(f.Data, f.Dims, sz.Options{Mode: sz.ModeABS, ErrorBound: 0.1})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 0, 512<<10+len(one))
	for len(payload) < 512<<10 {
		payload = append(payload, one...)
	}
	return payload, nil
}

// Fig11Result reproduces Figure 11: target vs observed overhead and
// throughput when ARC may use any ECC.
type Fig11Result struct {
	MemRows []Fig11MemRow
	BWRows  []Fig11BWRow
}

// Fig11MemRow is one memory-constraint point.
type Fig11MemRow struct {
	TargetOverhead   float64
	ChoiceOverhead   float64
	ObservedOverhead float64
	Config           string
}

// Fig11BWRow is one throughput-constraint point.
type Fig11BWRow struct {
	TargetMBs    float64
	PredictedMBs float64
	ObservedMBs  float64
	Config       string
	Threads      int
}

// Fig11 sweeps memory and throughput constraints with ARC_ANY_ECC.
func Fig11(maxThreads, scale int, seed int64, memTargets, bwTargets []float64) (*Fig11Result, error) {
	if len(memTargets) == 0 {
		memTargets = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	eng, err := buildEngine(maxThreads, 0)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if len(bwTargets) == 0 {
		bwTargets = defaultBWTargets(eng)
	}
	payload, err := studyPayload(scale, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for _, mem := range memTargets {
		er, err := eng.Encode(payload, mem, core.AnyBW, core.AnyECC)
		if err != nil {
			return nil, err
		}
		res.MemRows = append(res.MemRows, Fig11MemRow{
			TargetOverhead:   mem,
			ChoiceOverhead:   er.Choice.Overhead,
			ObservedOverhead: er.ActualOverhead,
			Config:           er.Choice.Config.String(),
		})
	}
	for _, bw := range bwTargets {
		choice, err := eng.Optimizer().Joint(core.AnyMem, bw, core.AnyECC)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := core.EncodeContainerWith(nil, payload, choice); err != nil {
			return nil, err
		}
		observed := mbs(len(payload), time.Since(t0))
		res.BWRows = append(res.BWRows, Fig11BWRow{
			TargetMBs:    bw,
			PredictedMBs: choice.PredictedEncMBs,
			ObservedMBs:  observed,
			Config:       choice.Config.String(),
			Threads:      choice.Threads,
		})
	}
	return res, nil
}

// defaultBWTargets derives a sweep spanning the machine's trained
// range, so the experiment adapts to slow and fast hosts alike.
func defaultBWTargets(eng *core.Engine) []float64 {
	lo, hi := 1e18, 0.0
	for _, e := range eng.Table().Entries {
		if e.EncMBs < lo {
			lo = e.EncMBs
		}
		if e.EncMBs > hi {
			hi = e.EncMBs
		}
	}
	if hi <= lo {
		return []float64{1}
	}
	var ts []float64
	for f := lo; f < hi; f *= 4 {
		ts = append(ts, f)
	}
	return ts
}

// Table renders both sweeps.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		Title:  "Figure 11a: ARC_ANY_ECC memory constraint — target vs observed",
		Header: []string{"target", "choice overhead", "observed overhead", "config"},
		Caption: "Paper shape: ARC tracks the budget from below, switching configurations as the\n" +
			"budget grows (0.2 -> RS m=15 at 19.5%; 0.9 -> RS m=103 at 88.5% in the paper).",
	}
	for _, row := range r.MemRows {
		t.AddRow(f2(row.TargetOverhead), f3(row.ChoiceOverhead), f3(row.ObservedOverhead), row.Config)
	}
	return t
}

// BWTable renders the throughput sweep.
func (r *Fig11Result) BWTable() *Table {
	t := &Table{
		Title:  "Figure 11b: ARC_ANY_ECC throughput constraint — target vs observed",
		Header: []string{"target MB/s", "predicted MB/s", "observed MB/s", "config", "threads"},
		Caption: "Paper shape: ARC meets the bound with the fewest threads that suffice,\n" +
			"switching to faster methods as the bound rises (0.5 MB/s -> RS; 300 MB/s -> SEC-DED).",
	}
	for _, row := range r.BWRows {
		t.AddRow(f2(row.TargetMBs), f2(row.PredictedMBs), f2(row.ObservedMBs), row.Config, iS(row.Threads))
	}
	return t
}

// Fig12Result reproduces Figure 12: the same sweeps with the
// resiliency constraint pinning ARC to a single ECC method.
type Fig12Result struct {
	MemRows []Fig12MemRow
	BWRows  []Fig12BWRow
}

// Fig12MemRow is one (method, target) memory point.
type Fig12MemRow struct {
	Method         string
	TargetOverhead float64
	TrueOverhead   float64
	Config         string
	OverBudget     bool
}

// Fig12BWRow is one (method, target) throughput point.
type Fig12BWRow struct {
	Method     string
	TargetMBs  float64
	TrueMBs    float64
	Config     string
	Threads    int
	UnderBound bool
}

// fig12Methods lists the four single-method constraints.
var fig12Methods = []ecc.Method{ecc.MethodParity, ecc.MethodHamming, ecc.MethodSECDED, ecc.MethodReedSolomon}

// Fig12 sweeps targets per single-ECC resiliency constraint.
func Fig12(maxThreads, scale int, seed int64, memTargets []float64) (*Fig12Result, error) {
	if len(memTargets) == 0 {
		memTargets = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	eng, err := buildEngine(maxThreads, 0)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	payload, err := studyPayload(scale, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	for _, m := range fig12Methods {
		rcons := core.Resiliency{Methods: []ecc.Method{m}}
		for _, mem := range memTargets {
			choice, err := eng.Optimizer().Memory(mem, rcons)
			if err != nil {
				return nil, err
			}
			res.MemRows = append(res.MemRows, Fig12MemRow{
				Method:         m.String(),
				TargetOverhead: mem,
				TrueOverhead:   choice.Overhead,
				Config:         choice.Config.String(),
				OverBudget:     choice.OverBudget,
			})
		}
		for _, bw := range defaultBWTargets(eng) {
			choice, err := eng.Optimizer().Throughput(bw, rcons)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := core.EncodeContainerWith(nil, payload, choice); err != nil {
				return nil, err
			}
			res.BWRows = append(res.BWRows, Fig12BWRow{
				Method:     m.String(),
				TargetMBs:  bw,
				TrueMBs:    mbs(len(payload), time.Since(t0)),
				Config:     choice.Config.String(),
				Threads:    choice.Threads,
				UnderBound: choice.UnderThroughput,
			})
		}
	}
	return res, nil
}

// Table renders the single-ECC memory sweep.
func (r *Fig12Result) Table() *Table {
	t := &Table{
		Title:  "Figure 12a: single-ECC memory constraint — target vs true overhead",
		Header: []string{"method", "target", "true overhead", "config", "over budget"},
		Caption: "Paper shape: Hamming/SEC-DED step between two plateaus; parity steps down in\n" +
			"block sizes; RS tracks the target nearly continuously; impossible budgets go over with a warning.",
	}
	for _, row := range r.MemRows {
		t.AddRow(row.Method, f2(row.TargetOverhead), f3(row.TrueOverhead), row.Config, fmt.Sprint(row.OverBudget))
	}
	return t
}

// BWTable renders the single-ECC throughput sweep.
func (r *Fig12Result) BWTable() *Table {
	t := &Table{
		Title:  "Figure 12b: single-ECC throughput constraint — target vs true throughput",
		Header: []string{"method", "target MB/s", "true MB/s", "config", "threads", "under bound"},
		Caption: "Paper shape: RS cannot meet high bounds (flagged under-bound, best effort);\n" +
			"the fast methods meet every target with few threads.",
	}
	for _, row := range r.BWRows {
		t.AddRow(row.Method, f2(row.TargetMBs), f2(row.TrueMBs), row.Config, iS(row.Threads), fmt.Sprint(row.UnderBound))
	}
	return t
}

// Sec63Result reproduces Section 6.3: rerunning the fault study with
// ARC protection (1 err/MB constraint) — every single-bit flip must be
// corrected — plus the multi-bit/burst escalation examples.
type Sec63Result struct {
	Dataset        string
	Config         string
	Trials         int
	Corrected      int
	RoundTripOK    bool
	BurstConfig    string
	BurstCorrected bool
}

// Sec63 runs the resiliency evaluation on each study dataset.
func Sec63(maxThreads, scale int, maxTrials int, seed int64) ([]Sec63Result, error) {
	eng, err := buildEngine(maxThreads, 0)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	var out []Sec63Result
	for _, f := range datasets.StudyFields(scale, seed) {
		comp, err := pressio.New("SZ-ABS", 0.1)
		if err != nil {
			return nil, err
		}
		payload, err := comp.Compress(f.Data, f.Dims)
		if err != nil {
			return nil, err
		}
		enc, err := eng.Encode(payload, core.AnyMem, core.AnyBW, core.Resiliency{ErrorsPerMB: 1})
		if err != nil {
			return nil, err
		}
		r := Sec63Result{Dataset: f.Name, Config: enc.Choice.Config.String(), RoundTripOK: true}
		rng := newRand(seed)
		for trial := 0; trial < maxTrials; trial++ {
			mut := append([]byte(nil), enc.Encoded...)
			faultinject.FlipBitInPlace(mut, rng.Intn(len(mut)*8))
			dec, derr := eng.Decode(mut)
			r.Trials++
			if derr == nil && bytes.Equal(dec.Data, payload) {
				r.Corrected++
			} else {
				r.RoundTripOK = false
			}
		}
		// Multi-bit burst escalation: ARC_RS with a 0.2 budget.
		bEnc, err := eng.Encode(payload, 0.2, core.AnyBW, core.Resiliency{Caps: ecc.CorrectBurst})
		if err != nil {
			return nil, err
		}
		r.BurstConfig = bEnc.Choice.Config.String()
		mut := append([]byte(nil), bEnc.Encoded...)
		// Burst sized to half the code's per-stripe repair capacity:
		// m/2 whole devices at the stripe start.
		devSize := bEnc.Choice.Config.DeviceSizeFor(len(payload))
		burstLen := (bEnc.Choice.Config.Param / 2) * devSize
		if burstLen < 1 {
			burstLen = 1
		}
		if len(mut) < core.ContainerOverheadBytes+burstLen+1 {
			burstLen = len(mut) - core.ContainerOverheadBytes - 1
		}
		for i := 0; i < burstLen; i++ {
			mut[core.ContainerOverheadBytes+i] ^= 0xFF
		}
		dec, derr := eng.Decode(mut)
		r.BurstCorrected = derr == nil && bytes.Equal(dec.Data, payload)
		out = append(out, r)
	}
	return out, nil
}

// Sec63Table renders the resiliency rerun.
func Sec63Table(rows []Sec63Result) *Table {
	t := &Table{
		Title:  "Section 6.3: fault study rerun with ARC (resiliency = 1 err/MB)",
		Header: []string{"dataset", "config", "trials", "corrected", "burst config", "burst corrected"},
		Caption: "Paper: ARC (SEC-DED per 8 bytes) corrects 100% of injected single-bit errors;\n" +
			"Reed-Solomon configurations additionally correct multi-bit bursts.",
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, r.Config, iS(r.Trials), iS(r.Corrected), r.BurstConfig, fmt.Sprint(r.BurstCorrected))
	}
	return t
}

// Sec64Result reproduces Section 6.4: the failure-model report for
// Cielo and Hopper and the constraint recommendations.
type Sec64Result struct {
	Recs []failmodel.Recommendation
}

// Sec64 evaluates the ease-of-use scenario.
func Sec64() *Sec64Result {
	return &Sec64Result{Recs: []failmodel.Recommendation{
		failmodel.Recommend(failmodel.Cielo()),
		failmodel.Recommend(failmodel.Hopper()),
	}}
}

// Table renders the system reports.
func (r *Sec64Result) Table() *Table {
	t := &Table{
		Title: "Section 6.4: system failure model and ARC constraint recommendation",
		Header: []string{"system", "nodes", "altitude ft", "MTBF days", "single-bit %",
			"recommended", "config"},
		Caption: "Paper: Cielo fails every 1.9 days (70.79% single-bit; bursts common) -> ARC_COR_BURST / Reed-Solomon;\n" +
			"Hopper every 5.43 days (94.6% single-bit) -> SEC-DED-class protection suffices.",
	}
	for _, rec := range r.Recs {
		s := rec.System
		t.AddRow(s.Name, iS(s.Nodes), iS(s.AltitudeFeet), f2(s.MTBFDays()),
			f1(100*s.SingleBitFraction), rec.Resiliency.Caps.String(), rec.Config.String())
	}
	return t
}

func newRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
