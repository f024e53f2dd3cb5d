package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestSpecMatchesBenchmarkJSON holds the tables in spec.go to the
// contract file the driver reads.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", got.Paths)
	}
	if !reflect.DeepEqual(got.Workloads, workloads) {
		t.Errorf("workloads differ from spec.go:\n%+v\n%+v", got.Workloads, workloads)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%+v\n%+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n%+v\n%+v", got.PerLayer, perLayer)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecNamesAreLegal(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !legalName.MatchString(name) || seen[name] {
			t.Errorf("name %q is illegal or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			check(m.Name)
			if !legalUnit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != higher && m.Better != lower {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's", m.Name, m.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}

// smokeRun runs one workload at smoke scale with fixed iteration and
// request counts (no time budget), so that its counts repeat.
func smokeRun(t *testing.T, workload string, seed int64, trace bool) *record {
	t.Helper()
	rec, err := runWorkload(runOptions{workload: workload, sc: scales["smoke"], seed: seed, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if err := rec.complete(); err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !rec.Correct || rec.Tally.Failed != 0 || rec.Tally.Silent != 0 || rec.Tally.Attempted == 0 {
		t.Errorf("%s seed %d trace %v: %+v", workload, seed, trace, rec.Tally)
	}
	for _, s := range specsOf(trace) {
		m, ok := rec.Metrics[s.Name]
		if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v)", workload, s.Name, m, ok)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, s.Name, m.Value)
		}
	}
	return rec
}

// TestSmoke runs every workload end to end on small inputs: every
// named metric is reported, the ECC choices the workloads are defined
// on hold, exact counts repeat for one seed and the generated inputs
// change with the seed.
func TestSmoke(t *testing.T) {
	wantConfig := map[string]string{"ckpt": "secded64", "protect-secded": "secded64", "protect-rs": "rs-m15", "service": "secded64"}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a := smokeRun(t, w.Name, 1, false)
			b := smokeRun(t, w.Name, 1, false)
			c := smokeRun(t, w.Name, 2, false)
			smokeRun(t, w.Name, 1, true)
			if a.Config != wantConfig[w.Name] {
				t.Errorf("ECC configuration %s, want %s", a.Config, wantConfig[w.Name])
			}
			if !reflect.DeepEqual(a.Counts, b.Counts) {
				t.Errorf("counts differ between two runs of one seed:\n%v\n%v", a.Counts, b.Counts)
			}
			if a.Metrics["stored_ratio"] != b.Metrics["stored_ratio"] {
				t.Errorf("stored_ratio %v then %v on one seed", a.Metrics["stored_ratio"], b.Metrics["stored_ratio"])
			}
			if a.Service.InjectedBits != b.Service.InjectedBits || a.Service.InjectedBlock != b.Service.InjectedBlock ||
				a.Service.Uncorrectable != b.Service.Uncorrectable || a.Service.Requests != b.Service.Requests {
				t.Errorf("service ground truth differs between two runs of one seed:\n%+v\n%+v", a.Service, b.Service)
			}
			if a.Counts["input_crc32"] == c.Counts["input_crc32"] {
				t.Errorf("input digest %#x is the same under another seed: the inputs do not depend on it", a.Counts["input_crc32"])
			}
		})
	}
}

func TestCompareFlagsRegressionAndSpread(t *testing.T) {
	set := func(vals ...float64) *runSet {
		s := new(runSet)
		for _, v := range vals {
			s.Runs = append(s.Runs, &record{Workload: "ckpt", Metrics: map[string]metric{"save_mb_s": {Value: v, Unit: "MB/s"}}})
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *runSet) string {
		p := dir + "/" + name
		if err := writeJSON(p, s); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := write("a.json", set(100, 101, 99, 100, 102))
	slower := write("b.json", set(70, 71, 69, 70, 72))
	noisy := write("c.json", set(60, 100, 140, 90, 120))
	for _, tc := range []struct {
		a, b string
		bad  bool
	}{{steady, steady, false}, {steady, slower, true}, {steady, noisy, true}} {
		bad, err := compareFiles(io.Discard, tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.bad {
			t.Errorf("compare(%s, %s) flagged %v, want %v", tc.a, tc.b, bad, tc.bad)
		}
	}
}
