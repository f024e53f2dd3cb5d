// Command arcperf reproduces the performance evaluation (Section 6.2):
// Figure 11 (constraint satisfaction with ARC_ANY_ECC) and Figure 12
// (single-ECC target vs true overhead/throughput), and beside them the
// constraint-honesty grid: what EncodeFile stored and how fast it ran
// next to what each request asked for.
//
// Usage:
//
//	arcperf [-threads N] [-scale N] [-seed N] any|single|honesty|all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "arcperf:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("arcperf", flag.ContinueOnError)
	threads := fs.Int("threads", 0, "maximum threads (0 = all CPUs)")
	scale := fs.Int("scale", 2, "dataset grid scale")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	which := "all"
	if fs.NArg() > 0 {
		which = fs.Arg(0)
	}
	switch which {
	case "any", "single", "honesty", "all":
	default:
		return fmt.Errorf("unknown sweep %q (want any, single, honesty, or all)", which)
	}
	if which == "any" || which == "all" {
		r, err := experiments.Fig11(*threads, *scale, *seed, nil, nil)
		if err != nil {
			return err
		}
		if err := r.Table().Write(out); err != nil {
			return err
		}
		if err := r.BWTable().Write(out); err != nil {
			return err
		}
	}
	if which == "single" || which == "all" {
		r, err := experiments.Fig12(*threads, *scale, *seed, nil)
		if err != nil {
			return err
		}
		if err := r.Table().Write(out); err != nil {
			return err
		}
		if err := r.BWTable().Write(out); err != nil {
			return err
		}
	}
	if which == "honesty" || which == "all" {
		r, err := experiments.Honesty(*threads, 0, 0, nil)
		if err != nil {
			return err
		}
		if err := r.Table().Write(out); err != nil {
			return err
		}
	}
	return nil
}
