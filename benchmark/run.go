package main

// One run of one workload: set-up, the timed phases, and the metrics
// they yield.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	arc "repro"
)

// metric is a reported value. Q1, Q3 and N describe the sample behind
// a median; they are zero for counts and single measurements. Raw is
// the value in uncalibrated wall time, where Value is calibrated (see
// calibrate.go).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Raw   float64 `json:"raw,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// record is everything one run reports.
type record struct {
	Workload string            `json:"workload"`
	Scale    string            `json:"scale"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Correct  bool              `json:"correct"`
	Tally    tally             `json:"operations"`
	Metrics  map[string]metric `json:"metrics"`
	// Counts repeat exactly for one seed: bytes in and stored, faults
	// injected at rest, the ECC configuration chosen.
	Counts map[string]int64 `json:"counts"`
	Config string           `json:"ecc_config"`
	// Layers is the full self-time table of a traced run, ns per input
	// byte keyed by "operation/layer", of which the per-layer metrics
	// are the named part.
	Layers map[string]float64 `json:"layers_ns_per_byte,omitempty"`
	// Samples holds the file phase's timed calls, per operation and
	// file: wall seconds, and the host probe's seconds around the call.
	Samples map[string][][]sampleJSON `json:"samples,omitempty"`
	Service *svcTotals                `json:"service_ground_truth,omitempty"`
	Host    host                      `json:"host"`
}

type sampleJSON struct {
	Secs  float64 `json:"s"`
	Probe float64 `json:"probe_s"`
}

// phaseShare is the share of the run's seconds the file phase gets;
// the service phase gets the rest. Each workload spends most of its
// time on the path it exists to measure.
func phaseShare(workload string) float64 {
	if workload == "service" {
		return 0.25
	}
	return 0.75
}

type runOptions struct {
	workload string
	sc       scale
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// runWorkload performs one run in this process.
func runWorkload(o runOptions) (*record, error) {
	dir, err := os.MkdirTemp(o.outDir, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e, err := setup(o.workload, o.sc, o.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()

	rec := &record{
		Workload: o.workload, Scale: o.sc.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Metrics: map[string]metric{}, Counts: map[string]int64{},
		Config: e.items[0].config, Host: hostInfo(e.inputBytes),
	}
	runtime.GC() // the timed phases start from set-up's live data, not its garbage
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		fileBudget := time.Duration(float64(budget) * phaseShare(o.workload))
		err = e.tracedRun(rec, fileBudget, budget-fileBudget, o.outDir)
	} else {
		err = e.plainRun(rec, budget)
	}
	if err != nil {
		return nil, err
	}

	var faultBits, faultBlocks int64
	for _, p := range e.items {
		faultBits += int64(p.want.Bits)
		faultBlocks += int64(p.want.Blocks)
	}
	rec.Counts["input_bytes"] = e.inputBytes
	rec.Counts["input_crc32"] = int64(e.inputDigest())
	rec.Counts["stored_bytes"] = e.storedBytes()
	rec.Counts["faults_at_rest_bits"] = faultBits
	rec.Counts["faults_at_rest_blocks"] = faultBlocks
	rec.Counts["silent_mismatches"] = int64(rec.Tally.Silent)
	rec.Service = &e.totals
	rec.Correct = rec.Tally.Failed == 0 && rec.Tally.Attempted > 0
	return rec, nil
}

// inputDigest is a CRC-32 over everything the workload was handed:
// the fields' values or the source files' bytes. It differs between
// seeds and repeats for one.
func (e *env) inputDigest() uint32 {
	var crc uint32
	buf := make([]byte, 0, 64<<10)
	for _, p := range e.items {
		if !p.isCheckpoint() {
			crc = crc32.Update(crc, crc32.IEEETable, p.plain)
			continue
		}
		for _, v := range p.field.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			if len(buf) == cap(buf) {
				crc = crc32.Update(crc, crc32.IEEETable, buf)
				buf = buf[:0]
			}
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		buf = buf[:0]
	}
	return crc
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.Name == name {
			return s.Unit
		}
	}
	panic("metric " + name + " is not in the spec")
}

func (r *record) set(specs []metricSpec, name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(specs, name)}
}

func (r *record) setCalibrated(specs []metricSpec, name string, v, raw float64, s summary) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(specs, name), Raw: raw, Q1: s.Q1, Q3: s.Q3, N: s.N}
}

// plainRun measures the end-to-end metrics with tracing off. It
// alternates one file iteration with a slice of the service phase
// sized to keep the phases' shares of the budget (connections stay
// open in between), so that a slow minute on a shared host costs every
// metric some of its samples and none of them all.
func (e *env) plainRun(rec *record, budget time.Duration) error {
	cl, err := e.openClients(&rec.Tally)
	if err != nil {
		return err
	}
	times := map[string]opTimes{}
	v := e.defaultVariant()
	share := phaseShare(e.workload)
	start := time.Now()
	for i := 0; keepGoing(i, e.sc.minIters, start, budget); i++ {
		e.fileIteration(v, times, &rec.Tally)
		var d time.Duration // no time budget: the request count alone governs
		if budget > 0 {
			d = time.Duration(float64(time.Since(start))*(1-share)) - cl.spent
		}
		cl.slice(d, e.sc.minReqs/e.sc.minIters, nil)
	}
	cl.close(&rec.Tally)
	svc := cl.result(0)

	rec.Samples = map[string][][]sampleJSON{}
	for _, op := range fileOps {
		for _, item := range times[op] {
			var xs []sampleJSON
			for _, x := range item {
				xs = append(xs, sampleJSON{x.secs, x.probe()})
			}
			rec.Samples[op] = append(rec.Samples[op], xs)
		}
	}
	rec.set(endToEnd, "setup_s", e.setupS)
	mb := float64(e.inputBytes) / 1e6
	for _, op := range fileOps {
		// The value sums each item's median; the quartiles are those of
		// the whole iterations.
		var perIter []float64
		for _, s := range times[op].perIteration() {
			perIter = append(perIter, mb/s)
		}
		rec.setCalibrated(endToEnd, op+"_mb_s", mb/times[op].seconds(), mb/times[op].rawSeconds(), summarize(perIter))
	}
	rec.set(endToEnd, "stored_ratio", float64(e.storedBytes())/float64(e.inputBytes))
	rec.setCalibrated(endToEnd, "req_per_s", svc.rate, svc.rawRate, summary{N: svc.measured})
	rec.setCalibrated(endToEnd, "read_p50_us", median(svc.lat[reqRead]), median(svc.rawLat[reqRead]), summarize(svc.lat[reqRead]))
	// The two medians added, not the median of the two pooled: ENCODE
	// and DECODE differ in cost, and the median of a two-peaked sample
	// jumps between the peaks with their mix.
	rec.setCalibrated(endToEnd, "codec_p50_us",
		median(svc.lat[reqEncode])+median(svc.lat[reqDecode]),
		median(svc.rawLat[reqEncode])+median(svc.rawLat[reqDecode]),
		summary{N: len(svc.lat[reqEncode]) + len(svc.lat[reqDecode])})
	rec.set(endToEnd, "peak_rss_mb", peakRSSMB())
	return nil
}

// tracedRun measures the per-layer metrics. Each file iteration issues
// the three operations four ways: staged with spans recorded, staged
// without (the pair gives the tracing overhead, and the second run
// carries the allocation meter), the public calls made sequential (the
// single-threaded baseline the layers must sum to), and the public
// calls with default options (the pair gives the pipeline speed-up).
func (e *env) tracedRun(rec *record, fileBudget, svcBudget time.Duration, outDir string) error {
	ladder, err := kernelLadder(e.sc.kernelBytes)
	if err != nil {
		return fmt.Errorf("kernel ladder: %w", err)
	}
	// One worker and one pipeline slot everywhere. The training sample
	// is irrelevant here: without a throughput bound the choice depends
	// on the constraints alone.
	seq, err := arc.InitWithOptions(1, arc.Options{CacheDir: "-", TrainSampleBytes: 16 << 10})
	if err != nil {
		return err
	}
	defer seq.Close()

	tr := newTracer()
	meter := newAllocMeter()
	staged := func(tr *tracer, m *allocMeter) fileVariant {
		return fileVariant{
			save: func(p *protected) (arc.Choice, int64, time.Duration, error) { return p.stagedSave(tr, m, e.a) },
			load: func(p *protected, kind, path string) (arc.StreamReport, time.Duration, error) {
				return p.stagedLoad(tr, m, kind, path)
			},
		}
	}
	sequential := fileVariant{
		save: func(p *protected) (arc.Choice, int64, time.Duration, error) {
			c, n, err := p.save(seq, p.path, arc.StreamOptions{Pipeline: 1})
			return c, n, 0, err
		},
		load: func(p *protected, _, path string) (arc.StreamReport, time.Duration, error) {
			rep, err := p.load(path, 1, arc.StreamOptions{Pipeline: 1})
			return rep, 0, err
		},
	}
	const recorded, unrecorded, sequentialCalls, defaultCalls = 0, 1, 2, 3
	variants := []fileVariant{staged(tr, nil), staged(nil, meter), sequential, e.defaultVariant()}
	times := make([]map[string]opTimes, len(variants))
	for i := range times {
		times[i] = map[string]opTimes{}
	}
	start := time.Now()
	iters := 0
	for ; keepGoing(iters, e.sc.minIters, start, fileBudget); iters++ {
		tr.iter = iters
		for i, v := range variants {
			e.fileIteration(v, times[i], &rec.Tally)
		}
	}

	input := float64(e.inputBytes)
	selfs := tr.selfTimes()[:iters]
	layer := func(key string) float64 {
		var xs []float64
		for _, it := range selfs {
			xs = append(xs, it[key]/input)
		}
		return median(xs)
	}
	rec.Layers = map[string]float64{}
	for _, it := range selfs {
		for key := range it {
			rec.Layers[key] = layer(key)
		}
	}
	for name, key := range map[string]string{
		"sz.compress.ns_per_byte":             "save/sz.compress",
		"zfp.compress.ns_per_byte":            "save/zfp.compress",
		"checkpoint.save.self_ns_per_byte":    "save/checkpoint.save",
		"ecc.encode.ns_per_byte":              "save/ecc",
		"core.stream_encode.self_ns_per_byte": "save/core.stream",
		"fs.write.ns_per_byte":                "save/fs.write",
		"fs.read.ns_per_byte":                 "load/fs.read",
		"ecc.decode.ns_per_byte":              "load/ecc",
		"core.stream_decode.self_ns_per_byte": "load/core.stream",
		"sz.decompress.ns_per_byte":           "load/sz.decompress",
		"zfp.decompress.ns_per_byte":          "load/zfp.decompress",
		"checkpoint.load.self_ns_per_byte":    "load/checkpoint.load",
		"ecc.repair.ns_per_byte":              "repair/ecc",
		"core.stream_repair.self_ns_per_byte": "repair/core.stream",
	} {
		rec.set(perLayer, name, layer(key))
	}

	// An operation's layers sum to its root spans, which is the time
	// the staged form reports for itself. Hold that to the sequential
	// public call, and the recorded staged form to the unrecorded one.
	// Each is the sum of every file's lower-quartile calibrated time.
	var tracedS, untracedS float64
	for _, op := range fileOps {
		rec.set(perLayer, "trace."+op+".layers_over_sequential", times[recorded][op].seconds()/times[sequentialCalls][op].seconds())
		tracedS += times[recorded][op].seconds()
		untracedS += times[unrecorded][op].seconds()
	}
	overhead := 1 - untracedS/tracedS
	rec.set(perLayer, "core.pipeline.encode_speedup", times[sequentialCalls][opSave].seconds()/times[defaultCalls][opSave].seconds())
	rec.set(perLayer, "core.pipeline.decode_speedup", times[sequentialCalls][opLoad].seconds()/times[defaultCalls][opLoad].seconds())

	for _, l := range []string{"sz.compress", "sz.decompress", "zfp.compress", "zfp.decompress", "core.stream_encode", "core.stream_decode"} {
		rec.set(perLayer, l+".alloc_bytes_per_mb", meter.perMB(l))
	}
	for name, v := range ladder {
		rec.set(perLayer, name, v)
	}
	rec.set(perLayer, "datasets.generate_s", e.generateS)
	rec.set(perLayer, "core.init_train_s", e.initTrainS)

	// The service phase in alternating slices: spans around every
	// request, then none.
	tr.iter = iters // past the file iterations: not part of their layer table
	cl, err := e.openClients(&rec.Tally)
	if err != nil {
		return err
	}
	const rounds = 4
	for r := 0; r < rounds; r++ {
		var sliceTracer *tracer
		if r%2 == 0 {
			sliceTracer = tr
		}
		cl.slice(svcBudget/rounds, e.sc.minReqs/rounds, sliceTracer)
	}
	st := cl.close(&rec.Tally)
	traced, plain := cl.result(1), cl.result(0)
	if e.workload == "service" {
		overhead = 1 - traced.rate/plain.rate
	}
	rec.set(perLayer, "trace.overhead_frac", overhead)

	rec.setCalibrated(perLayer, "service.read_range.client_p50_us", median(traced.lat[reqRead]), median(traced.rawLat[reqRead]), summarize(traced.lat[reqRead]))
	rec.set(perLayer, "service.read_range.client_p99_us", percentile(traced.lat[reqRead], 0.99))
	rec.set(perLayer, "service.encode.client_p50_us", median(traced.lat[reqEncode]))
	rec.set(perLayer, "service.decode.client_p50_us", median(traced.lat[reqDecode]))
	rec.set(perLayer, "service.server_p50_us", st.Latency.P50Ms*1e3)
	rec.set(perLayer, "service.server_p99_us", st.Latency.P99Ms*1e3)
	// The server's histogram is in wall time, so the wire share is taken
	// from the clients' wall-time latencies too.
	var all []float64
	for _, l := range traced.rawLat {
		all = append(all, l...)
	}
	rec.set(perLayer, "service.wire_p50_us", median(all)-st.Latency.P50Ms*1e3)
	rec.set(perLayer, "service.mallocs_per_req", float64(cl.mallocs)/float64(max(cl.requests, 1)))
	if c := st.Cache; c != nil {
		rec.set(perLayer, "cache.hit_ratio", float64(c.Hits)/float64(max(c.Hits+c.Misses, 1)))
		rec.set(perLayer, "cache.misses", float64(c.Misses))
		rec.set(perLayer, "cache.evictions", float64(c.Evictions))
	}
	rec.set(perLayer, "service.repaired_requests", float64(st.RepairedRequests))
	rec.set(perLayer, "service.uncorrectable", float64(st.Uncorrectable))
	rec.set(perLayer, "service.corrected_bits", float64(st.CorrectedBits))

	cold, warm, err := e.readerAt(&rec.Tally)
	if err != nil {
		return err
	}
	rec.set(perLayer, "readerat.read_range.cold_us", cold)
	rec.set(perLayer, "readerat.read_range.warm_us", warm)

	return tr.write(filepath.Join(outDir, "trace-"+e.workload+".json"))
}

// readerAt times direct arc.OpenFileReaderAt range reads of the first
// item, with no service in between: cold on a freshly opened reader
// (the covering chunk is decoded), warm on the repeat (served from the
// reader's own cache). Microseconds, medians over a few windows.
func (e *env) readerAt(t *tally) (cold, warm float64, err error) {
	p := e.items[0]
	n := min(e.sc.readMax, len(p.plain))
	dst := make([]byte, n)
	var colds, warms []float64
	for i := 0; i < 5; i++ {
		first := (len(p.plain) - n) / 5 * i
		r, err := arc.OpenFileReaderAt(p.path, arc.RangeOptions{})
		if err != nil {
			return 0, 0, err
		}
		for _, out := range []*[]float64{&colds, &warms} {
			var rerr error
			var got int
			var rep arc.StreamReport
			s := timed(func() { got, rep, rerr = r.ReadRange(dst, int64(first), int64(n)) })
			*out = append(*out, s*1e6)
			t.Attempted++
			switch {
			case rerr != nil || got != n || !bytes.Equal(dst, p.plain[first:first+n]):
				t.fail(fmt.Errorf("ReaderAt %s [%d,+%d): wrong bytes or %v", p.name, first, n, rerr), rerr == nil)
			case !(repairs{}).matches(rep.DetectedBlocks, rep.CorrectedBits, rep.CorrectedBlocks):
				t.fail(fmt.Errorf("ReaderAt %s: repairs %+v reported on a clean file", p.name, rep), false)
			}
		}
		if err := r.Close(); err != nil {
			return 0, 0, err
		}
	}
	return median(colds), median(warms), nil
}
