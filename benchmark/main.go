// Command benchmark measures ARC on the paper's own path — float field
// -> SZ/ZFP -> ECC -> file and back — and as the arcd service, end to
// end and layer by layer. See README.md.
//
//	go run -C benchmark . --workload ckpt --seed 1 --seconds 12 --trace 0
//	go run -C benchmark . -runs 10 -o a.json    # every workload, ten seeds
//	go run -C benchmark . compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fatal(errors.New("usage: benchmark compare a.json b.json"))
		}
		bad, err := compareFiles(os.Stdout, os.Args[2], os.Args[3])
		if err != nil {
			fatal(err)
		}
		if bad {
			os.Exit(1)
		}
		return
	}

	workload := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "seconds one run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	scaleName := flag.String("scale", "full", "input sizes: full or smoke")
	runs := flag.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("o", "", "without -workload: write every run's record to this file, for compare")
	outDir := flag.String("out", defaultOutDir(), "directory for scratch files, traces and records")
	flag.Parse()

	sc, ok := scales[*scaleName]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload == "" {
		if err := runAll(*seed, *seconds, *scaleName, *runs, *out, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	rec, err := runWorkload(runOptions{workload: *workload, sc: sc, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir})
	if err != nil {
		fatal(err)
	}
	if err := rec.complete(); err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, rec.String())
	if err := writeJSON(recordPath(*outDir, *workload, rec.Trace), rec); err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec.result()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// defaultOutDir is benchmark/out wherever the command was started
// from: `go run -C benchmark .` starts it inside benchmark/.
func defaultOutDir() string {
	if _, err := os.Stat("spec.go"); err == nil {
		return "out"
	}
	return filepath.Join("benchmark", "out")
}

func recordPath(outDir, workload string, trace bool) string {
	return filepath.Join(outDir, fmt.Sprintf("record-%s-trace%d.json", workload, btoi(trace)))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// specsOf returns the metrics a run must report: the end-to-end ones
// untraced, the per-layer ones traced.
func specsOf(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// complete checks that the run reports exactly its metrics, each a
// finite number; a layer that did no work reports 0.
func (r *record) complete() error {
	specs := specsOf(r.Trace)
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			if !r.Trace {
				return fmt.Errorf("metric %s was not measured", s.Name)
			}
			m = metric{Unit: s.Unit}
			r.Metrics[s.Name] = m
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, m.Value)
		}
	}
	if len(r.Metrics) != len(specs) {
		return fmt.Errorf("%d metrics reported, the spec lists %d", len(r.Metrics), len(specs))
	}
	return nil
}

// result is the one-line summary a driver reads from standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *record) result() result {
	out := result{Correct: r.Correct, Attempted: r.Tally.Attempted, Failed: r.Tally.Failed, Metrics: map[string]lineMetric{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = lineMetric{m.Value, m.Unit}
	}
	return out
}

// String renders the run for a reader: every metric by name with its
// unit, quartiles and count where there is a sample, then the counts.
func (r *record) String() string {
	w := new(strings.Builder)
	fmt.Fprintf(w, "workload %s  seed %d  scale %s  trace %v  ecc %s\n", r.Workload, r.Seed, r.Scale, r.Trace, r.Config)
	for _, s := range specsOf(r.Trace) {
		m := r.Metrics[s.Name]
		fmt.Fprintf(w, "  %-40s %14.4f %-6s", s.Name, m.Value, m.Unit)
		if m.Raw != 0 {
			fmt.Fprintf(w, "  uncalibrated %.4f", m.Raw)
		}
		if m.Q3 != 0 {
			fmt.Fprintf(w, "  q1 %.4f  q3 %.4f", m.Q1, m.Q3)
		}
		if m.N > 0 {
			fmt.Fprintf(w, "  n %d", m.N)
		}
		fmt.Fprintln(w)
	}
	if len(r.Layers) > 0 {
		keys := make([]string, 0, len(r.Layers))
		for k := range r.Layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, "  self time of every layer, ns per input byte:")
		for _, k := range keys {
			fmt.Fprintf(w, "    %-36s %10.4f\n", k, r.Layers[k])
		}
	}
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-40s %14d\n", k, r.Counts[k])
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d, silent mismatches %d\n", r.Tally.Attempted, r.Tally.Failed, r.Tally.Silent)
	for _, f := range r.Tally.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	h := r.Host
	fmt.Fprintf(w, "  host: nproc %d, GOMAXPROCS %d, %s, gf256 %s %v, L2 %d B, L3 %d B, input %d B; %s\n",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.GF256Tier, h.GF256Feats, h.L2Bytes, h.L3Bytes, h.CorpusBytes, h.Note)
	return w.String()
}

// runSet is what -o writes and compare reads.
type runSet struct {
	Runs []*record `json:"runs"`
}

// runAll runs every workload, each run in a fresh child process of
// this program: `runs` untraced runs on consecutive seeds, then one
// traced run on the first seed.
func runAll(seed int64, seconds float64, scaleName string, runs int, out, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set runSet
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			trace, s := i == runs, seed+int64(i)
			if trace {
				s = seed
			}
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(btoi(trace)), "-scale", scaleName, "-out", outDir)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			raw, err := os.ReadFile(recordPath(outDir, w.Name, trace))
			if err != nil {
				return err
			}
			rec := new(record)
			if err := json.Unmarshal(raw, rec); err != nil {
				return err
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	if out != "" {
		return writeJSON(out, set)
	}
	return nil
}
