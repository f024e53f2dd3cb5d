package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunFig1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fig1", "-trials", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Fatalf("missing table:\n%s", out.String())
	}
}

// TestRunExperiments drives experiments end to end through run, at
// sizes that keep the whole test in seconds.
func TestRunExperiments(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"fig4", []string{"fig4", "-trials", "10"}, []string{"Figure 4"}}, // no other test runs Fig4
		{"fig6", []string{"fig6", "-threads", "1,2", "-sample-kb", "16"}, []string{"Figure 6", "configs trained"}},
		{"fig89", []string{"fig89", "-threads", "1", "-mb", "1"}, []string{"Figures 8-9", "parity8", "rs-m15", "speedup"}},
		{"fig10", []string{"fig10", "-threads", "1", "-mb", "1"}, []string{"Figure 10"}},
		{"fig11", []string{"fig11", "-threads", "1", "-scale", "1"}, []string{"Figure 11a", "Figure 11b"}},
		{"sec63", []string{"sec63", "-threads", "1", "-trials", "20"}, []string{"Section 6.3", "corrected 100%"}},
		{"matrix", []string{"matrix", "-trials", "15"}, []string{"recovery matrix"}},
		{"crossover", []string{"crossover"}, []string{"crossover"}},
		{"sec64", []string{"sec64"}, []string{"Cielo", "Hopper", "1.90", "5.43"}},
		{"sec64-verbose", []string{"sec64", "-verbose"}, []string{"ARC_COR_BURST"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestEveryExperimentBindsItsFlags builds each experiment's flag set:
// a flag name in the registry that params does not define would panic.
func TestEveryExperimentBindsItsFlags(t *testing.T) {
	for i := range registry {
		e := &registry[i]
		p := e.defaults
		fs := e.flagSet(&p)
		for _, name := range strings.Fields(e.flags) {
			if fs.Lookup(name) == nil {
				t.Errorf("%s: flag -%s not bound", e.name, name)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{nil, {"fig99"}, {"all"}} {
		err := run(args, &out)
		if err == nil {
			t.Fatalf("%q must fail", args)
		}
		if !strings.Contains(err.Error(), "sec63") {
			t.Fatalf("%q: the error must list the experiments, got %v", args, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-bogus"},
		{"fig1", "-bogus"},
		{"fig1", "-mb", "4"}, // a flag of another experiment
		{"sec64", "extra"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("%q must fail", args)
		}
	}
}

// TestRunRejectsUnknown: the old `arcperf any|single|honesty` sweep
// names are now experiments, so an unknown name or a trailing sweep
// name fails.
func TestRunRejectsUnknown(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{{"bogus"}, {"fig11", "any"}, {"fig12", "bogus"}} {
		if err := run(args, &out); err == nil {
			t.Fatalf("%q must fail", args)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"fig89", "-threads", "x"},
		{"fig89", "-mb", "0"},
		{"fig10", "-mb", "0"},
		{"sec63", "-trials", "0"},
		{"fig89", "enc"}, // the old `arcscale enc` sweep name
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("%q must fail", args)
		}
	}
}

func TestRunRejectsBadThreads(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"fig6", "-threads", "1,zero"},
		{"fig6", "-threads", "0"},
		{"fig10", "-threads", "-1"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("%q must fail", args)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fig1", "-trials", "30", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "==") {
		t.Fatal("csv output must not contain table decorations")
	}
	if !strings.Contains(s, "percentile,bit position") {
		t.Fatalf("missing csv header:\n%s", s)
	}
}
