// Command benchmeta turns `go test -bench -benchmem` output into the
// repository's recorded benchmark artifacts.
//
// With no arguments it prints host metadata as a single-line JSON
// object (the original mode, still used standalone). With a subcommand
// it reads benchmark output on stdin and writes one artifact to stdout:
//
//	go test -bench 'BenchmarkStream' -benchmem . | benchmeta stream  > BENCH_stream.json
//	go test -bench 'BenchmarkKernel' -benchmem . | benchmeta kernels > BENCH_kernels.json
//	go test -bench 'BenchmarkSeek' -benchmem .   | benchmeta seek    > BENCH_seek.json
//	arcload -addr $ADDR -corrupt 0.5      | benchmeta service > BENCH_service.json
//
// The service subcommand reads an arcload workload result instead of
// benchmark lines and gates on the fault-injection integrity contract
// plus smoke-scale throughput/latency floors (docs/SERVICE.md).
//
// Both subcommands record ns/op, MB/s, B/op, and allocs/op per
// benchmark under a "host" header, and both gate: `stream` fails (exit
// 1) when any steady-state benchmark exceeds the allocation budget or
// the expected benchmarks are missing; `kernels` fails when a
// kernel misses its speedup floor over its retained reference (word
// over scalar, Reed-Solomon repair's solve over ref). Host metadata is
// embedded so recorded numbers are self-explanatory: a "cores": 1
// artifact reads very differently from an 8-core one, and kernel MB/s
// only compares across runs on the same GOARCH and Go version.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/gf256"
	"repro/internal/service"
)

// hostMeta identifies the machine behind a recorded artifact. Cores is
// the hardware view (runtime.NumCPU) and GOMAXPROCS the scheduler's —
// they differ under cgroup CPU quotas, and parallel-speedup numbers
// only make sense against the latter. CPUFeatures and DispatchTier
// record which SIMD tiers the gf256 dispatcher saw and which one it
// picked, so kernel MB/s is attributable to a specific code path.
type hostMeta struct {
	Cores        int      `json:"cores"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GOOS         string   `json:"goos"`
	GOARCH       string   `json:"goarch"`
	GoVersion    string   `json:"go_version"`
	CPUFeatures  []string `json:"cpu_features"`
	DispatchTier string   `json:"dispatch_tier"`
}

func host() hostMeta {
	return hostMeta{
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GoVersion:    runtime.Version(),
		CPUFeatures:  gf256.Features(),
		DispatchTier: gf256.ActiveTier(),
	}
}

// benchResult is one parsed benchmark line. bytes_per_op and
// allocs_per_op are -1 when the run lacked -benchmem, so a genuine
// zero-allocation result is distinguishable from "not measured".
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// gomaxprocsSuffix strips the trailing -N GOMAXPROCS decoration that
// `go test` appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-[0-9]+$`)

// parseBench reads `go test -bench` output and returns the benchmark
// lines whose name starts with prefix. Lines that are not benchmark
// results (headers, PASS, ok) are skipped.
func parseBench(r io.Reader, prefix string) ([]benchResult, error) {
	sc := bufio.NewScanner(r)
	var out []benchResult
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], prefix) {
			continue
		}
		it, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := benchResult{
			Name:        gomaxprocsSuffix.ReplaceAllString(f[0], ""),
			Iterations:  it,
			BytesPerOp:  -1,
			AllocsPerOp: -1,
		}
		// The rest of the line is value/unit pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "MB/s":
				b.MBPerS = v
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			}
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

const (
	// steadyAllocsMax is the steady-state allocation budget for the
	// chunk hot path: every BenchmarkStreamSteady variant must stay at
	// or under this many allocs/op. See docs/ALLOCATIONS.md.
	steadyAllocsMax = 2

	// SEC-DED(72,64) table kernel over the per-block popcount
	// reference, EncodeTo/DecodeTo into a reused buffer: half the
	// ratios measured when the kernel landed (18x and 8.7x).
	secdedEncodeSpeedupMin = 9.0
	secdedDecodeSpeedupMin = 4.0
	gf256SpeedupMin        = 2.0

	// Reed-Solomon repair of 7 corrupt devices per 241+15 stripe: the
	// e x e solve over the retained K x K inversion, half the ratio
	// measured when the solve landed (10-11x).
	rsRepairSpeedupMin = 5.0

	// Vectorized codec kernels: the batched SZ quantizer and the
	// unrolled ZFP lifting transform, each against its retained scalar
	// reference.
	szQuantizeSpeedupMin = 2.0
	zfpLiftSpeedupMin    = 2.0

	// ZFP's embedded coder, encode plus decode over the coefficient
	// blocks of a 2-D and a 3-D field: one field per plane prefix and
	// per run over the retained call-per-bit coder, half the ratio
	// measured when the word coder landed (3.6-3.8x).
	zfpPlanesSpeedupMin = 1.8

	// SZ's entropy stage, decode side: huffman.DecodeAll (local bit
	// window, two symbols per table lookup) over one Decode call per
	// symbol on a 65 536-symbol alphabet with SZ-like skew, half the
	// ratio measured when the batch call landed (3.1-3.2x). The encode
	// pair (1.9x) is recorded without a floor.
	huffmanDecodeSpeedupMin = 1.6

	// avx2VsSSSE3Min gates the 32-byte GF(256) kernel against the
	// 16-byte one on hosts whose dispatcher reports AVX2: twice the
	// lanes should buy at least 1.5x after memory effects.
	avx2VsSSSE3Min = 1.5
)

type streamArtifact struct {
	Host       hostMeta           `json:"host"`
	Note       string             `json:"note"`
	Benchmarks []benchResult      `json:"benchmarks"`
	Targets    map[string]float64 `json:"targets"`
}

func runStream(in io.Reader, out, errw io.Writer) error {
	benches, err := parseBench(in, "BenchmarkStream")
	if err != nil {
		return err
	}
	art := streamArtifact{
		Host:       host(),
		Note:       "pipeline>1 overlaps chunk encode/decode across cores; the >=1.5x speedup target applies on hosts with >=4 cores, single-core hosts show parity minus scheduling overhead. BenchmarkStreamSteady reuses one writer/reader across iterations and is gated on the steady-state allocation budget.",
		Benchmarks: benches,
		Targets:    map[string]float64{"SteadyStateAllocs_max": steadyAllocsMax},
	}
	if err := emit(out, art); err != nil {
		return err
	}

	var pipelined, steadyEnc, steadyDec int
	var over []string
	for _, b := range benches {
		switch {
		case strings.HasPrefix(b.Name, "BenchmarkStreamPipelined/"):
			pipelined++
		case strings.HasPrefix(b.Name, "BenchmarkStreamSteady/encode"):
			steadyEnc++
		case strings.HasPrefix(b.Name, "BenchmarkStreamSteady/decode"):
			steadyDec++
		}
		if strings.HasPrefix(b.Name, "BenchmarkStreamSteady/") {
			if b.AllocsPerOp < 0 {
				return fmt.Errorf("stream gate FAILED: %s has no allocs/op column (run the bench with -benchmem)", b.Name)
			}
			if b.AllocsPerOp > steadyAllocsMax {
				over = append(over, fmt.Sprintf("%s = %d allocs/op", b.Name, b.AllocsPerOp))
			}
		}
	}
	if pipelined == 0 || steadyEnc == 0 || steadyDec == 0 {
		return fmt.Errorf("stream gate FAILED: expected BenchmarkStreamPipelined plus BenchmarkStreamSteady encode and decode results, got %d/%d/%d", pipelined, steadyEnc, steadyDec)
	}
	if len(over) > 0 {
		return fmt.Errorf("stream allocation gate FAILED (budget %d allocs/op): %s", steadyAllocsMax, strings.Join(over, "; "))
	}
	_, err = fmt.Fprintf(errw, "stream gate OK: %d steady-state benchmarks within %d allocs/op\n", steadyEnc+steadyDec, steadyAllocsMax)
	return err
}

type kernelsArtifact struct {
	Host       hostMeta           `json:"host"`
	Note       string             `json:"note"`
	Benchmarks []benchResult      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
	Targets    map[string]float64 `json:"targets"`
}

func runKernels(in io.Reader, out, errw io.Writer) error {
	benches, err := parseBench(in, "BenchmarkKernel")
	if err != nil {
		return err
	}
	mbps := make(map[string]float64, len(benches))
	for _, b := range benches {
		mbps[b.Name] = b.MBPerS
	}
	speedups := make(map[string]float64)
	// A kernel is paired with its retained reference by sub-benchmark
	// name: word over scalar, and for Reed-Solomon repair solve over ref.
	for _, pair := range [][2]string{{"/word", "/scalar"}, {"/solve", "/ref"}} {
		for _, b := range benches {
			base, ok := strings.CutSuffix(b.Name, pair[0])
			if !ok {
				continue
			}
			ref := mbps[base+pair[1]]
			if ref <= 0 {
				continue
			}
			speedups[strings.TrimPrefix(base, "BenchmarkKernel")] = round2(b.MBPerS / ref)
		}
	}
	// The per-tier MulSlice runs are not word/scalar pairs; derive the
	// AVX2-over-SSSE3 ratio from them when both tiers were measured.
	avx2 := mbps["BenchmarkKernelGF256MulSliceTier/avx2"]
	ssse3 := mbps["BenchmarkKernelGF256MulSliceTier/ssse3"]
	if avx2 > 0 && ssse3 > 0 {
		speedups["GF256MulSliceAVX2VsSSSE3"] = round2(avx2 / ssse3)
	}
	targets := map[string]float64{
		"SECDED64Encode_min": secdedEncodeSpeedupMin,
		"SECDED64Decode_min": secdedDecodeSpeedupMin,
		"GF256MulSlice_min":  gf256SpeedupMin,
		"RSRepair_min":       rsRepairSpeedupMin,
		"SZQuantize_min":     szQuantizeSpeedupMin,
		"ZFPLift_min":        zfpLiftSpeedupMin,
		"ZFPPlanes_min":      zfpPlanesSpeedupMin,
		"HuffmanDecode_min":  huffmanDecodeSpeedupMin,
	}
	hostHasAVX2 := slices.Contains(gf256.Features(), "avx2")
	if hostHasAVX2 {
		targets["GF256MulSliceAVX2VsSSSE3_min"] = avx2VsSSSE3Min
	}
	art := kernelsArtifact{
		Host:       host(),
		Note:       "each kernel and its retained reference (word/scalar; solve/ref for RSRepair) are measured in the same run; speedups are kernel MB/s over reference MB/s. GF256MulSliceTier runs the same kernel under each dispatch tier; its avx2/ssse3 ratio is gated only on hosts that report AVX2.",
		Benchmarks: benches,
		Speedups:   speedups,
		Targets:    targets,
	}
	if err := emit(out, art); err != nil {
		return err
	}

	floors := []struct {
		name string
		min  float64
	}{
		{"SECDED64Encode", secdedEncodeSpeedupMin},
		{"SECDED64Decode", secdedDecodeSpeedupMin},
		{"GF256MulSlice", gf256SpeedupMin},
		{"RSRepair", rsRepairSpeedupMin},
		{"SZQuantize", szQuantizeSpeedupMin},
		{"ZFPLift", zfpLiftSpeedupMin},
		{"ZFPPlanes", zfpPlanesSpeedupMin},
		{"HuffmanDecode", huffmanDecodeSpeedupMin},
	}
	if hostHasAVX2 {
		floors = append(floors, struct {
			name string
			min  float64
		}{"GF256MulSliceAVX2VsSSSE3", avx2VsSSSE3Min})
	}
	var fails, oks []string
	for _, f := range floors {
		got, ok := speedups[f.name]
		switch {
		case !ok:
			fails = append(fails, fmt.Sprintf("%s missing (no benchmark pair in input)", f.name))
		case got < f.min:
			fails = append(fails, fmt.Sprintf("%s %.2fx (need %gx)", f.name, got, f.min))
		default:
			oks = append(oks, fmt.Sprintf("%s %.2fx", f.name, got))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("kernel gate FAILED: %s", strings.Join(fails, "; "))
	}
	_, err = fmt.Fprintf(errw, "kernel gate OK: %s\n", strings.Join(oks, ", "))
	return err
}

const (
	// Seek floors: a small range read out of a large v2 archive must
	// beat decoding the whole stream by a wide margin (that is the
	// point of the chunk index), and a cache-warm repeat must beat the
	// cold read (that is the point of the decoded-chunk cache). The
	// benchmark reads ~0.45% of a 64 MiB archive, so these are loose
	// floors over a ~100x expectation — see docs/CONTAINER.md.
	seekColdSpeedupMin = 20.0
	seekWarmSpeedupMin = 5.0
)

type seekArtifact struct {
	Host       hostMeta           `json:"host"`
	Note       string             `json:"note"`
	Benchmarks []benchResult      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
	Targets    map[string]float64 `json:"targets"`
}

// runSeek reads BenchmarkSeek output, records the seek artifact, and
// gates on the ranged-read speedups: cold range vs sequential full
// decode, and warm (cached) range vs cold.
func runSeek(in io.Reader, out, errw io.Writer) error {
	benches, err := parseBench(in, "BenchmarkSeek")
	if err != nil {
		return err
	}
	ns := make(map[string]float64, len(benches))
	for _, b := range benches {
		ns[strings.TrimPrefix(b.Name, "BenchmarkSeek/")] = b.NsPerOp
	}
	for _, want := range []string{"full_seq", "full_pipe", "range_cold", "range_warm"} {
		if ns[want] <= 0 {
			return fmt.Errorf("seek gate FAILED: missing BenchmarkSeek/%s (run `go test -bench BenchmarkSeek -benchmem .`)", want)
		}
	}
	speedups := map[string]float64{
		"RangeColdVsFullSeq": round2(ns["full_seq"] / ns["range_cold"]),
		"RangeWarmVsCold":    round2(ns["range_cold"] / ns["range_warm"]),
	}
	art := seekArtifact{
		Host:       host(),
		Note:       "one ~0.45% range out of a 64 MiB v2 archive: cold pays the index load and one chunk's ECC decode, warm is a decoded-chunk cache hit; full_seq/full_pipe decode the whole stream (the v1 answer). Ratios are ns/op quotients from the same run.",
		Benchmarks: benches,
		Speedups:   speedups,
		Targets: map[string]float64{
			"RangeColdVsFullSeq_min": seekColdSpeedupMin,
			"RangeWarmVsCold_min":    seekWarmSpeedupMin,
		},
	}
	if err := emit(out, art); err != nil {
		return err
	}
	cold, warm := speedups["RangeColdVsFullSeq"], speedups["RangeWarmVsCold"]
	if cold < seekColdSpeedupMin || warm < seekWarmSpeedupMin {
		return fmt.Errorf("seek gate FAILED: cold range %.1fx over full decode (need %gx), warm %.1fx over cold (need %gx)",
			cold, seekColdSpeedupMin, warm, seekWarmSpeedupMin)
	}
	_, err = fmt.Fprintf(errw, "seek gate OK: cold range %.1fx over full decode, warm %.1fx over cold\n", cold, warm)
	return err
}

const (
	// Smoke-scale service floors: deliberately conservative so they
	// hold on a loaded single-core CI runner while still catching a
	// service that has fallen off a cliff (or deadlocked into a
	// trickle). Real capacity numbers belong to dedicated runs, not
	// gates.
	serviceReqPerSMin = 20.0
	serviceP99MaxMs   = 1500.0
)

type serviceArtifact struct {
	Host     hostMeta               `json:"host"`
	Note     string                 `json:"note"`
	Workload service.WorkloadResult `json:"workload"`
	Targets  map[string]float64     `json:"targets"`
}

// runService reads an arcload WorkloadResult (JSON on stdin), records
// it as the service artifact, and gates on the integrity contract —
// damage was injected, every response repaired or reported, nothing
// silently wrong — plus smoke-scale service floors.
func runService(in io.Reader, out, errw io.Writer) error {
	var res service.WorkloadResult
	dec := json.NewDecoder(in)
	if err := dec.Decode(&res); err != nil {
		return fmt.Errorf("service gate FAILED: cannot parse arcload output: %w", err)
	}
	art := serviceArtifact{
		Host:     host(),
		Note:     "arcload smoke run with mid-flight fault injection against a live arcd; integrity gates are exact, throughput/latency floors are conservative smoke-scale bounds (see docs/SERVICE.md)",
		Workload: res,
		Targets: map[string]float64{
			"RequestsPerS_min": serviceReqPerSMin,
			"P99Ms_max":        serviceP99MaxMs,
		},
	}
	if err := emit(out, art); err != nil {
		return err
	}

	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	if res.Requests == 0 {
		failf("no requests completed")
	}
	if res.Errors != 0 {
		failf("%d request errors", res.Errors)
	}
	if res.SilentMismatches != 0 {
		failf("%d SILENT MISMATCHES (decodes returned wrong bytes as OK)", res.SilentMismatches)
	}
	v := res.CorruptedTotal()
	if v.Repaired+v.Reported+v.Silent == 0 {
		failf("no container was damaged (run arcload with -corrupt > 0)")
	}
	if res.RequestsPerS < serviceReqPerSMin {
		failf("%.1f req/s under the %.0f req/s smoke floor", res.RequestsPerS, serviceReqPerSMin)
	}
	if res.Latency.P99Ms > serviceP99MaxMs {
		failf("p99 %.1fms over the %.0fms smoke ceiling", res.Latency.P99Ms, serviceP99MaxMs)
	}
	if len(fails) > 0 {
		return fmt.Errorf("service gate FAILED: %s", strings.Join(fails, "; "))
	}
	_, err := fmt.Fprintf(errw,
		"service gate OK: %d requests at %.0f req/s (p99 %.1fms), damaged containers %d repaired / %d reported, 0 silent mismatches\n",
		res.Requests, res.RequestsPerS, res.Latency.P99Ms, v.Repaired, v.Reported)
	return err
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

func emit(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func run(args []string, in io.Reader, out, errw io.Writer) error {
	if len(args) == 0 {
		// Host-only mode stays single-line: callers embed it verbatim.
		b, err := json.Marshal(host())
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, string(b))
		return err
	}
	switch args[0] {
	case "stream":
		return runStream(in, out, errw)
	case "kernels":
		return runKernels(in, out, errw)
	case "service":
		return runService(in, out, errw)
	case "seek":
		return runSeek(in, out, errw)
	default:
		return fmt.Errorf("unknown subcommand %q (want stream, kernels, seek, or service, or no argument for host metadata)", args[0])
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmeta:", err)
		os.Exit(1)
	}
}
