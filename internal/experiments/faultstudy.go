package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/datasets"
	"repro/internal/faultinject"
	"repro/internal/pressio"
)

// StudyOptions scales the fault-injection experiments. The paper runs
// millions of trials on full SDRBench datasets; the defaults here keep
// a laptop run in seconds while preserving every qualitative finding.
type StudyOptions struct {
	Scale     int   // dataset grid scale (1 = small)
	MaxTrials int   // trials per configuration
	Seed      int64 // reproducibility
	Workers   int
}

// Defaults fills zero fields.
func (o StudyOptions) defaults() StudyOptions {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = 400
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Fig1Result reproduces Figure 1: the effect of single-bit flips at
// two stream locations on an Isabel-like field compressed with SZ-ABS
// eps = 0.1.
type Fig1Result struct {
	Trials []Fig1Trial
}

// Fig1Trial is one injected flip.
type Fig1Trial struct {
	BitPosition      int
	Status           faultinject.Status
	PercentIncorrect float64
}

// Fig1 injects flips across the compressed Isabel stream and reports
// the two most contrasting Completed outcomes plus the extremes, the
// shape behind the paper's 49.6%/99.4% examples.
func Fig1(o StudyOptions) (*Fig1Result, error) {
	o = o.defaults()
	f := datasets.Isabel(8*o.Scale, 24*o.Scale, 24*o.Scale, o.Seed)
	comp, err := pressio.New("SZ-ABS", 0.1)
	if err != nil {
		return nil, err
	}
	camp, err := faultinject.Run(faultinject.Config{
		Compressor: comp,
		Data:       f.Data,
		Dims:       f.Dims,
		MaxTrials:  o.MaxTrials,
		Seed:       o.Seed,
		Workers:    o.Workers,
	})
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{}
	for _, t := range camp.Trials {
		if t.Status != faultinject.Completed {
			continue
		}
		res.Trials = append(res.Trials, Fig1Trial{
			BitPosition:      t.Bit,
			Status:           t.Status,
			PercentIncorrect: t.Metrics.PercentIncorrect,
		})
	}
	sort.Slice(res.Trials, func(i, j int) bool {
		return res.Trials[i].PercentIncorrect < res.Trials[j].PercentIncorrect
	})
	return res, nil
}

// Table renders the figure-1 evidence: distribution extremes.
func (r *Fig1Result) Table() *Table {
	t := &Table{
		Title:  "Figure 1: single-bit flips in SZ-ABS(eps=0.1) Isabel-like data",
		Header: []string{"percentile", "bit position", "% incorrect elements"},
		Caption: "Paper's examples: bit 400,005 -> 49.6% incorrect; bit 465,840 -> 99.4%.\n" +
			"The qualitative claim: location determines severity, and severe cases corrupt most of the field.",
	}
	if len(r.Trials) == 0 {
		return t
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"min", 0}, {"p25", 0.25}, {"median", 0.5}, {"p75", 0.75}, {"max", 1}} {
		i := int(q.p * float64(len(r.Trials)-1))
		tr := r.Trials[i]
		t.AddRow(q.name, iS(tr.BitPosition), pct(tr.PercentIncorrect))
	}
	return t
}

// Fig2Result reproduces Figure 2: the distribution of return statuses
// over all (compressor, dataset) pairs.
type Fig2Result struct {
	Cells []Fig2Cell
}

// Fig2Cell is one (compressor, dataset) pair's status distribution.
type Fig2Cell struct {
	Compressor string
	Dataset    string
	Percent    map[faultinject.Status]float64
	Trials     int
}

// Fig2 runs the full study grid: 5 configurations x 3 datasets.
func Fig2(o StudyOptions) (*Fig2Result, error) {
	o = o.defaults()
	res := &Fig2Result{}
	for _, field := range datasets.StudyFields(o.Scale, o.Seed) {
		for _, comp := range pressio.StudySet() {
			camp, err := faultinject.Run(faultinject.Config{
				Compressor: comp,
				Data:       field.Data,
				Dims:       field.Dims,
				MaxTrials:  o.MaxTrials,
				Seed:       o.Seed,
				Workers:    o.Workers,
			})
			if err != nil {
				return nil, fmt.Errorf("fig2 %s/%s: %w", comp.Name(), field.Name, err)
			}
			cell := Fig2Cell{
				Compressor: comp.Name(),
				Dataset:    field.Name,
				Percent:    map[faultinject.Status]float64{},
				Trials:     len(camp.Trials),
			}
			for _, s := range faultinject.Statuses() {
				cell.Percent[s] = camp.PercentByStatus(s)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// AverageCompleted returns the mean Completed percentage over cells
// (the paper reports 95.28%).
func (r *Fig2Result) AverageCompleted() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range r.Cells {
		sum += c.Percent[faultinject.Completed]
	}
	return sum / float64(len(r.Cells))
}

// Table renders the status distribution.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title:  "Figure 2: return-status distribution of fault-injection trials",
		Header: []string{"compressor", "dataset", "trials", "completed", "exception", "terminated", "timeout"},
		Caption: fmt.Sprintf("Average Completed: %.2f%% (paper: 95.28%%; ZFP rows 100%%).",
			r.AverageCompleted()),
	}
	for _, c := range r.Cells {
		t.AddRow(c.Compressor, c.Dataset, iS(c.Trials),
			pct(c.Percent[faultinject.Completed]),
			pct(c.Percent[faultinject.CompressorException]),
			pct(c.Percent[faultinject.Terminated]),
			pct(c.Percent[faultinject.Timeout]))
	}
	return t
}

// Fig3Result reproduces Figure 3: percent of elements violating the
// error bound per fault location on the CESM-like dataset, per mode.
type Fig3Result struct {
	Series []Fig3Series
}

// Fig3Series is one mode's per-location profile.
type Fig3Series struct {
	Compressor string
	// Points maps sampled bit position to percent incorrect (Completed
	// trials only).
	Points []Fig3Point
	// MeanPercent matches the figure's per-mode average annotation.
	MeanPercent float64
	// MeanElements is the ZFP-Rate metric (elements, not percent).
	MeanElements float64
	Ratio        float64
}

// Fig3Point is one completed trial.
type Fig3Point struct {
	Bit              int
	PercentIncorrect float64
	Elements         int
}

// fig3Modes are the modes Figure 3 plots.
var fig3Modes = []string{"SZ-ABS", "SZ-PWREL", "ZFP-ACC", "ZFP-Rate"}

// Fig3 runs the per-location profile on the CESM-like field.
func Fig3(o StudyOptions) (*Fig3Result, error) {
	o = o.defaults()
	f := datasets.CESM(32*o.Scale, 64*o.Scale, o.Seed)
	res := &Fig3Result{}
	for _, name := range fig3Modes {
		bound := 0.1
		if name == "ZFP-Rate" {
			bound = 8
		}
		comp, err := pressio.New(name, bound)
		if err != nil {
			return nil, err
		}
		camp, err := faultinject.Run(faultinject.Config{
			Compressor: comp,
			Data:       f.Data,
			Dims:       f.Dims,
			MaxTrials:  o.MaxTrials,
			Seed:       o.Seed,
			Workers:    o.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("fig3 %s: %w", name, err)
		}
		s := Fig3Series{Compressor: name, Ratio: camp.Ratio}
		var sumP, sumE float64
		n := 0
		for _, tr := range camp.Trials {
			if tr.Status != faultinject.Completed {
				continue
			}
			s.Points = append(s.Points, Fig3Point{
				Bit:              tr.Bit,
				PercentIncorrect: tr.Metrics.PercentIncorrect,
				Elements:         tr.Metrics.IncorrectElements,
			})
			sumP += tr.Metrics.PercentIncorrect
			sumE += float64(tr.Metrics.IncorrectElements)
			n++
		}
		if n > 0 {
			s.MeanPercent = sumP / float64(n)
			s.MeanElements = sumE / float64(n)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Table renders per-mode averages.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title:  "Figure 3: error-bound violations per fault location (CESM-like)",
		Header: []string{"mode", "CR", "mean % incorrect", "mean elements", "max %"},
		Caption: "Paper averages: SZ-ABS 10.04%, SZ-PWREL 9.57%, ZFP-ACC 10.32%; ZFP-Rate 3.53 *elements*.\n" +
			"Shape claim: variable-length modes corrupt ~10% on average; ZFP-Rate stays within one block.",
	}
	for _, s := range r.Series {
		maxP := 0.0
		for _, p := range s.Points {
			if p.PercentIncorrect > maxP {
				maxP = p.PercentIncorrect
			}
		}
		t.AddRow(s.Compressor, f1(s.Ratio), pct(s.MeanPercent), f2(s.MeanElements), pct(maxP))
	}
	return t
}

// Fig4Result reproduces Figure 4: violation profiles at target
// compression ratios 50x, 25x, 13x, 7x for the three bounding modes.
type Fig4Result struct {
	Cells []Fig4Cell
}

// Fig4Cell is one (mode, target CR) run.
type Fig4Cell struct {
	Compressor  string
	TargetCR    float64
	AchievedCR  float64
	Bound       float64
	MeanPercent float64
	// FrontMean/BackMean split the profile at the stream midpoint,
	// quantifying the paper's "downward slope" finding.
	FrontMean float64
	BackMean  float64
}

// fig4Ratios are the paper's target compression ratios.
var fig4Ratios = []float64{50, 25, 13, 7}

// Fig4 tunes each mode to each ratio and reruns the injection study.
func Fig4(o StudyOptions) (*Fig4Result, error) {
	o = o.defaults()
	f := datasets.CESM(32*o.Scale, 64*o.Scale, o.Seed)
	res := &Fig4Result{}
	for _, name := range []string{"SZ-ABS", "SZ-PWREL", "ZFP-ACC"} {
		base, err := pressio.New(name, 0.1)
		if err != nil {
			return nil, err
		}
		for _, target := range fig4Ratios {
			tuned, achieved, err := pressio.SearchBound(base, f.Data, f.Dims, target, 0.1, 40)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s@%gx: %w", name, target, err)
			}
			camp, err := faultinject.Run(faultinject.Config{
				Compressor: tuned,
				Data:       f.Data,
				Dims:       f.Dims,
				MaxTrials:  o.MaxTrials,
				Seed:       o.Seed,
				Workers:    o.Workers,
			})
			if err != nil {
				return nil, err
			}
			cell := Fig4Cell{Compressor: name, TargetCR: target, AchievedCR: achieved, Bound: tuned.Bound()}
			var sum, front, back float64
			var n, nf, nb int
			mid := camp.CompressedSize * 4 // midpoint in bits
			for _, tr := range camp.Trials {
				if tr.Status != faultinject.Completed {
					continue
				}
				p := tr.Metrics.PercentIncorrect
				sum += p
				n++
				if tr.Bit < mid {
					front += p
					nf++
				} else {
					back += p
					nb++
				}
			}
			if n > 0 {
				cell.MeanPercent = sum / float64(n)
			}
			if nf > 0 {
				cell.FrontMean = front / float64(nf)
			}
			if nb > 0 {
				cell.BackMean = back / float64(nb)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Table renders the loss-level sweep.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Title:  "Figure 4: violations at increasing loss levels (CESM-like)",
		Header: []string{"mode", "target CR", "achieved CR", "bound", "mean % incorrect", "front-half %", "back-half %"},
		Caption: "Paper shape: higher CRs mask more soft errors (looser bounds absorb them);\n" +
			"at 13x/7x the profile slopes downward (front-of-stream flips corrupt more).",
	}
	for _, c := range r.Cells {
		t.AddRow(c.Compressor, f1(c.TargetCR), f1(c.AchievedCR), eg(c.Bound),
			pct(c.MeanPercent), pct(c.FrontMean), pct(c.BackMean))
	}
	return t
}

// Fig5Result reproduces Figure 5: average data-integrity metrics for
// Completed trials vs controls.
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5Row is one configuration's aggregate.
type Fig5Row struct {
	Compressor string
	Dataset    string

	ControlBWMBs  float64
	CorruptBWMBs  float64
	CorruptBWStd  float64
	ControlMaxErr float64
	MeanMaxErr    float64 // mean over corrupt trials
	WorstMaxErr   float64
	ControlPSNR   float64
	MeanPSNR      float64
	MinPSNR       float64
}

// Fig5 gathers bandwidth / max-diff / PSNR statistics over every
// (configuration, dataset) pair, as the paper's figure does.
func Fig5(o StudyOptions) (*Fig5Result, error) {
	o = o.defaults()
	res := &Fig5Result{}
	for _, f := range datasets.StudyFields(o.Scale, o.Seed) {
		if err := fig5Dataset(o, f, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func fig5Dataset(o StudyOptions, f *datasets.Field, res *Fig5Result) error {
	for _, comp := range pressio.StudySet() {
		camp, err := faultinject.Run(faultinject.Config{
			Compressor: comp,
			Data:       f.Data,
			Dims:       f.Dims,
			MaxTrials:  o.MaxTrials,
			Seed:       o.Seed,
			Workers:    o.Workers,
		})
		if err != nil {
			return err
		}
		row := Fig5Row{
			Compressor:    comp.Name(),
			Dataset:       f.Name,
			ControlBWMBs:  camp.ControlBWMBs,
			ControlMaxErr: camp.Control.MaxDiff,
			ControlPSNR:   camp.Control.PSNR,
			MinPSNR:       math.Inf(1),
		}
		var bws []float64
		var sumMax, sumPSNR float64
		n := 0
		for _, tr := range camp.Trials {
			if tr.Status != faultinject.Completed {
				continue
			}
			bws = append(bws, tr.BandwidthMBs)
			m := tr.Metrics.MaxDiff
			if math.IsNaN(m) || math.IsInf(m, 0) {
				m = math.MaxFloat64
			}
			sumMax += m
			if m > row.WorstMaxErr {
				row.WorstMaxErr = m
			}
			p := tr.Metrics.PSNR
			if !math.IsInf(p, 0) && !math.IsNaN(p) {
				sumPSNR += p
				if p < row.MinPSNR {
					row.MinPSNR = p
				}
			}
			n++
		}
		if n > 0 {
			row.MeanMaxErr = sumMax / float64(n)
			row.MeanPSNR = sumPSNR / float64(n)
			row.CorruptBWMBs, row.CorruptBWStd = meanStd(bws)
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// Table renders the integrity metrics.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title: "Figure 5: average data-integrity metrics (Completed trials vs control)",
		Header: []string{"mode", "dataset", "ctrl BW", "corrupt BW", "BW stddev", "ctrl maxdiff",
			"mean maxdiff", "ctrl PSNR", "mean PSNR", "min PSNR"},
		Caption: "Paper shape: corrupt-trial mean bandwidth near control but higher variance;\n" +
			"max difference explodes past the bound; PSNR drops except for ZFP-Rate.",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Compressor, row.Dataset, f1(row.ControlBWMBs), f1(row.CorruptBWMBs), f1(row.CorruptBWStd),
			eg(row.ControlMaxErr), eg(row.MeanMaxErr), f1(row.ControlPSNR), f1(row.MeanPSNR), f1(row.MinPSNR))
	}
	return t
}
