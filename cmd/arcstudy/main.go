// Command arcstudy regenerates the paper's evaluation, one experiment
// per run: the fault-injection study (Section 4, Figures 1-5), the
// training cost (Figure 6), ECC scaling and error load (Figures 8-10),
// constraint satisfaction (Figures 11-12 and the constraint-honesty
// grid), the resiliency rerun (Section 6.3, with the recovery matrix
// and the burst crossover beside it) and the failure model (Section
// 6.4).
//
// Usage:
//
//	arcstudy <experiment> [flags]
//
// Run it with no arguments for the list of experiments and the flags
// each takes; `arcstudy <experiment> -h` prints that experiment's flags
// with its defaults. Every experiment also takes -csv, -cpuprofile and
// -memprofile.
//
// Scale 1 keeps a study run under a minute on a laptop; the paper's
// full-size datasets correspond to much larger scales (and hours of
// compute), with identical qualitative results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/failmodel"
	"repro/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "arcstudy:", err)
		os.Exit(1)
	}
}

// params are every experiment's knobs; an experiment reads the ones
// its flags name.
type params struct {
	scale, trials, workers, mb, sampleKB int
	seed                                 int64
	threads                              threadList
	verbose                              bool
}

func (p params) study() experiments.StudyOptions {
	return experiments.StudyOptions{Scale: p.scale, MaxTrials: p.trials, Seed: p.seed, Workers: p.workers}
}

// maxThreads is the cap for an experiment that takes one thread count:
// the largest listed, 0 (all CPUs) when none is.
func (p params) maxThreads() int {
	m := 0
	for _, t := range p.threads {
		m = max(m, t)
	}
	return m
}

// threadList is a comma-separated list of positive thread counts.
type threadList []int

func (l *threadList) String() string {
	s := make([]string, len(*l))
	for i, t := range *l {
		s[i] = strconv.Itoa(t)
	}
	return strings.Join(s, ",")
}

func (l *threadList) Set(v string) error {
	*l = nil
	for _, s := range strings.Split(v, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || t < 1 {
			return fmt.Errorf("bad thread count %q", s)
		}
		*l = append(*l, t)
	}
	return nil
}

// count is a positive integer flag: every size and count an
// experiment reads is at least 1.
type count int

func (c *count) String() string { return strconv.Itoa(int(*c)) }

func (c *count) Set(v string) error {
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return fmt.Errorf("want a positive integer, got %q", v)
	}
	*c = count(n)
	return nil
}

type experiment struct {
	name, about string
	flags       string // the params it reads, as space-separated flag names
	defaults    params
	run         func(params) ([]*experiments.Table, error)
}

var (
	studyDefaults = params{scale: 1, trials: 400, seed: 1, workers: 1}
	scaleDefaults = params{threads: threadList{1, 2, 4}, mb: 4, seed: 1}
	perfDefaults  = params{scale: 2, seed: 1}
	resilDefaults = params{scale: 1, trials: 200, seed: 1}
)

var registry = []experiment{
	{"fig1", "Figure 1: single-bit flips in SZ-compressed Isabel data", "scale trials seed workers", studyDefaults,
		func(p params) ([]*experiments.Table, error) { return one(experiments.Fig1(p.study())) }},
	{"fig2", "Figure 2: return statuses over every compressor and dataset", "scale trials seed workers", studyDefaults,
		func(p params) ([]*experiments.Table, error) { return one(experiments.Fig2(p.study())) }},
	{"fig3", "Figure 3: error-bound violations per compressor mode", "scale trials seed workers", studyDefaults,
		func(p params) ([]*experiments.Table, error) { return one(experiments.Fig3(p.study())) }},
	{"fig4", "Figure 4: violations at four compression ratios", "scale trials seed workers", studyDefaults,
		func(p params) ([]*experiments.Table, error) { return one(experiments.Fig4(p.study())) }},
	{"fig5", "Figure 5: bandwidth, max difference and PSNR of completed trials", "scale trials seed workers", studyDefaults,
		func(p params) ([]*experiments.Table, error) { return one(experiments.Fig5(p.study())) }},
	{"fig6", "Figure 6: training cost vs maximum threads", "threads sample-kb",
		params{threads: threadList{1, 2, 4, 8}, sampleKB: 256},
		func(p params) ([]*experiments.Table, error) { return one(experiments.Fig6(p.threads, p.sampleKB<<10)) }},
	{"fig89", "Figures 8-9: ECC encode/decode throughput vs threads", "threads mb seed", scaleDefaults,
		func(p params) ([]*experiments.Table, error) {
			r, err := experiments.Fig89(p.threads, p.mb<<20, p.seed)
			if err != nil {
				return nil, err
			}
			return []*experiments.Table{r.Table(), r.SpeedupTable()}, nil
		}},
	{"fig10", "Figure 10: decode throughput under 1 and 100,000 correctable errors", "threads mb seed", scaleDefaults,
		func(p params) ([]*experiments.Table, error) {
			return one(experiments.Fig10(p.threads, p.mb<<20, []int{1, 100000}, p.seed))
		}},
	{"fig11", "Figure 11: constraint tracking with ARC_ANY_ECC", "threads scale seed", perfDefaults,
		func(p params) ([]*experiments.Table, error) {
			r, err := experiments.Fig11(p.maxThreads(), p.scale, p.seed, nil, nil)
			if err != nil {
				return nil, err
			}
			return []*experiments.Table{r.Table(), r.BWTable()}, nil
		}},
	{"fig12", "Figure 12: single-ECC target vs true overhead and throughput", "threads scale seed", perfDefaults,
		func(p params) ([]*experiments.Table, error) {
			r, err := experiments.Fig12(p.maxThreads(), p.scale, p.seed, nil)
			if err != nil {
				return nil, err
			}
			return []*experiments.Table{r.Table(), r.BWTable()}, nil
		}},
	{"honesty", "beside Figures 11-12: what EncodeFileWith stored and achieved per request", "threads", params{},
		func(p params) ([]*experiments.Table, error) {
			return one(experiments.Honesty(p.maxThreads(), 0, 0, nil))
		}},
	{"sec63", "Section 6.3: the fault study rerun under ARC; fails unless every error is corrected", "threads scale trials seed", resilDefaults,
		func(p params) ([]*experiments.Table, error) {
			rows, err := experiments.Sec63(p.maxThreads(), p.scale, p.trials, p.seed)
			if err != nil {
				return nil, err
			}
			t := experiments.Sec63Table(rows)
			for _, r := range rows {
				if r.Corrected != r.Trials || !r.BurstCorrected {
					return []*experiments.Table{t}, errors.New("some injected errors were NOT corrected — reproduction FAILED")
				}
			}
			t.Caption += "\nRESULT: ARC corrected 100% of injected errors (paper Section 6.3 reproduced)."
			return []*experiments.Table{t}, nil
		}},
	{"matrix", "extension: ECC method x fault pattern recovery matrix", "trials seed", resilDefaults,
		func(p params) ([]*experiments.Table, error) {
			return one(experiments.ExtResilienceMatrix(64<<10, p.trials, p.seed))
		}},
	{"crossover", "extension: burst-protection crossover map", "seed", resilDefaults,
		func(p params) ([]*experiments.Table, error) {
			return one(experiments.ExtCrossover(256<<10, 20, p.seed))
		}},
	{"sec64", "Section 6.4: Cielo/Hopper failure model and recommended constraint", "verbose", params{},
		func(p params) ([]*experiments.Table, error) {
			t := experiments.Sec64().Table()
			if p.verbose {
				for _, s := range []failmodel.System{failmodel.Cielo(), failmodel.Hopper()} {
					t.Caption += fmt.Sprintf("\n\n%s: %s", s.Name, failmodel.Recommend(s).Rationale)
				}
			}
			return []*experiments.Table{t}, nil
		}},
}

// one adapts an experiment that renders a single table.
func one[R interface{ Table() *experiments.Table }](r R, err error) ([]*experiments.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*experiments.Table{r.Table()}, nil
}

// flagSet binds the flags e reads to p, each defaulting to e's value.
func (e *experiment) flagSet(p *params) *flag.FlagSet {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.Var((*count)(&p.scale), "scale", "dataset grid scale (`n` >= 1)")
	all.Var((*count)(&p.trials), "trials", "fault-injection trials per configuration or dataset (`n` >= 1)")
	all.Int64Var(&p.seed, "seed", p.seed, "random seed")
	all.Var((*count)(&p.workers), "workers", "parallel trial workers (`n` >= 1)")
	all.Var(&p.threads, "threads", "comma-separated `list` of thread counts (an experiment with one cap takes the largest; none = all CPUs)")
	all.Var((*count)(&p.mb), "mb", "payload size in MiB (`n` >= 1)")
	all.Var((*count)(&p.sampleKB), "sample-kb", "training sample size in KiB (`n` >= 1)")
	all.BoolVar(&p.verbose, "verbose", p.verbose, "print each system's rationale")
	fs := flag.NewFlagSet("arcstudy "+e.name, flag.ContinueOnError)
	for _, name := range strings.Fields(e.flags) {
		f := all.Lookup(name)
		fs.Var(f.Value, f.Name, f.Usage)
	}
	return fs
}

func usage() string {
	var sb strings.Builder
	sb.WriteString("usage: arcstudy <experiment> [flags]\n\nexperiments:\n")
	for _, e := range registry {
		fmt.Fprintf(&sb, "  %-9s  %s\n  %-9s  flags: %s\n", e.name, e.about, "", e.flags)
	}
	return sb.String()
}

func run(args []string, out io.Writer) (err error) {
	if len(args) == 0 {
		return errors.New(usage())
	}
	var e *experiment
	for i := range registry {
		if registry[i].name == args[0] {
			e = &registry[i]
		}
	}
	if e == nil {
		return fmt.Errorf("unknown experiment %q\n%s", args[0], usage())
	}
	p := e.defaults
	fs := e.flagSet(&p)
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the flags
	} else if err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments after flags: %q", fs.Args())
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		// A profile the user asked for but that failed to write should
		// fail the run, without masking the experiment's own error.
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	// A failed verdict still prints the tables it rests on.
	tables, runErr := e.run(p)
	for _, t := range tables {
		if *csv {
			err = t.WriteCSV(out)
		} else {
			err = t.Write(out)
		}
		if err != nil {
			return err
		}
	}
	return runErr
}
