package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func readRunSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(runSet)
	if err := json.Unmarshal(raw, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs.
func (s *runSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians, the ratio b/a with its base, and a verdict: regressed when
// b's median is worse than a's by more than the metric's bound,
// unresolved when either set's quartile spread exceeds the bound (the
// runs cannot tell a change of that size from noise; set-up time is
// exempt, as its spread is not what a run repeats). It reports whether
// any row is regressed or unresolved.
func compareFiles(out io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	var w strings.Builder
	fmt.Fprintf(&w, "%-15s %-13s %12s %12s %18s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "b/a (base a)", "spread a", "spread b", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			sa, sb := summarize(a.values(wl.Name, m.Name)), summarize(b.values(wl.Name, m.Name))
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, bad = "regressed", true
			case m.Name != "setup_s" && (sa.spread() > m.Bound || sb.spread() > m.Bound):
				verdict, bad = "unresolved", true
			}
			fmt.Fprintf(&w, "%-15s %-13s %12.4f %12.4f %9.4f of %-8.4g %7.2f%% %7.2f%%  %s (bound %.1f%%, n %d/%d)\n",
				wl.Name, m.Name, sa.Median, sb.Median, sb.Median/sa.Median, sa.Median, 100*sa.spread(), 100*sb.spread(), verdict, 100*m.Bound, sa.N, sb.N)
		}
	}
	_, err = io.WriteString(out, w.String())
	return bad, err
}
