package main

// The benchmark's contract: workload, metric and scale tables. These
// are the names later issues cite; BENCHMARK.json at the repository
// root repeats them and TestSpecMatchesBenchmarkJSON keeps the two in
// step.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"ckpt", "checkpoint.Save/Load of CESM, Isabel and NYX fields with SZ-ABS and ZFP-ACC under secded64: the paper's headline use; sz, zfp, huffman and bitio do most of the work and ECC little"},
	{"protect-secded", "EncodeFile/DecodeFile of real SZ/ZFP output under secded64 with dense single-bit flips: compressors idle in the timed part; hamming/secded, core framing and file I/O do all of it"},
	{"protect-rs", "same corpus under rs-m15 with 7 of 256 devices per stripe burst-damaged: same core path, other ECC family (reedsolomon, gf256), and a repair path clean decode never runs"},
	{"service", "in-process arcd with a 16 MiB cache over four 8 MiB archives (working set 2x cache), 2 closed-loop connections, seeded READ_RANGE/ENCODE/DECODE mix: frames, cache, parallel.Pipe, range reader"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd lists what a user of ARC sees. Every workload reports all
// of them: the file workloads run a short arcd phase over the files
// they wrote and the service workload a short save/load/repair phase
// over its archives, so no metric is ever absent or zero. MB = 10^6
// bytes. Bound is the share of the parent's median by which a metric
// may worsen. The time-based metrics are in calibrated time
// (calibrate.go). Their bounds sit at the contract's cap because of the
// reference host, a 2-CPU virtual machine on a shared server: ten runs
// spread 2-8 % in a quiet hour and up to 12-19 % in a busy one, and the
// driver wants a spread within a third of its bound (see README.md).
// They are a statement about the host, not about how small a change
// matters.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"save_mb_s", "MB/s", higher, 0.25},
	{"load_mb_s", "MB/s", higher, 0.25},
	{"repair_mb_s", "MB/s", higher, 0.25},
	{"stored_ratio", "ratio", lower, 0.01},
	{"req_per_s", "1/s", higher, 0.25},
	{"read_p50_us", "us", lower, 0.25},
	{"codec_p50_us", "us", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer lists the single-layer numbers a traced run reports. A
// layer that does no work on a workload reports 0 there (sz.* and
// zfp.* on protect-*, for instance): that absence is itself the
// evidence that the workloads discriminate.
var perLayer = []metricSpec{
	{Name: "datasets.generate_s", Unit: "s", Better: lower},
	{Name: "core.init_train_s", Unit: "s", Better: lower},

	{Name: "sz.compress.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "zfp.compress.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "checkpoint.save.self_ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "ecc.encode.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "core.stream_encode.self_ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "fs.write.ns_per_byte", Unit: "ns/B", Better: lower},

	{Name: "fs.read.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "ecc.decode.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "core.stream_decode.self_ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "sz.decompress.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "zfp.decompress.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "checkpoint.load.self_ns_per_byte", Unit: "ns/B", Better: lower},

	{Name: "ecc.repair.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "core.stream_repair.self_ns_per_byte", Unit: "ns/B", Better: lower},

	{Name: "core.pipeline.encode_speedup", Unit: "ratio", Better: higher},
	{Name: "core.pipeline.decode_speedup", Unit: "ratio", Better: higher},

	{Name: "sz.compress.alloc_bytes_per_mb", Unit: "B/MB", Better: lower},
	{Name: "sz.decompress.alloc_bytes_per_mb", Unit: "B/MB", Better: lower},
	{Name: "zfp.compress.alloc_bytes_per_mb", Unit: "B/MB", Better: lower},
	{Name: "zfp.decompress.alloc_bytes_per_mb", Unit: "B/MB", Better: lower},
	{Name: "core.stream_encode.alloc_bytes_per_mb", Unit: "B/MB", Better: lower},
	{Name: "core.stream_decode.alloc_bytes_per_mb", Unit: "B/MB", Better: lower},
	{Name: "service.mallocs_per_req", Unit: "count", Better: lower},

	{Name: "host.memmove.gb_s", Unit: "GB/s", Better: higher},
	{Name: "host.xor.gb_s", Unit: "GB/s", Better: higher},
	{Name: "gf256.mulslice.gb_s", Unit: "GB/s", Better: higher},
	{Name: "huffman.encode.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "huffman.decode.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "bitio.write.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "bitio.read.ns_per_byte", Unit: "ns/B", Better: lower},
	{Name: "interleave.encode.ns_per_byte", Unit: "ns/B", Better: lower},

	{Name: "service.read_range.client_p50_us", Unit: "us", Better: lower},
	{Name: "service.read_range.client_p99_us", Unit: "us", Better: lower},
	{Name: "service.encode.client_p50_us", Unit: "us", Better: lower},
	{Name: "service.decode.client_p50_us", Unit: "us", Better: lower},
	{Name: "service.server_p50_us", Unit: "us", Better: lower},
	{Name: "service.server_p99_us", Unit: "us", Better: lower},
	{Name: "service.wire_p50_us", Unit: "us", Better: lower},
	{Name: "readerat.read_range.cold_us", Unit: "us", Better: lower},
	{Name: "readerat.read_range.warm_us", Unit: "us", Better: lower},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cache.misses", Unit: "count", Better: lower},
	{Name: "cache.evictions", Unit: "count", Better: lower},
	{Name: "service.repaired_requests", Unit: "count", Better: lower},
	{Name: "service.uncorrectable", Unit: "count", Better: lower},
	{Name: "service.corrected_bits", Unit: "count", Better: lower},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
	{Name: "trace.save.layers_over_sequential", Unit: "ratio", Better: lower},
	{Name: "trace.load.layers_over_sequential", Unit: "ratio", Better: lower},
	{Name: "trace.repair.layers_over_sequential", Unit: "ratio", Better: lower},
}

// scale sizes a run. full is what BENCHMARK.json's command measures;
// smoke is the same code on inputs small enough for `go test`.
type scale struct {
	name string

	cesm        [2]int // ny, nx
	isabel, nyx [3]int // nz, ny, nx

	// rates are the ZFP-Rate settings that pad the protect-* corpus
	// (after SZ-ABS and ZFP-ACC at 1e-3 of the value range).
	rates []float64
	// flipsPerMiB is protect-secded's fault density (the paper's
	// Fig. 10 densest point: 100 000 flips over 48 MiB).
	flipsPerMiB float64

	archives     int // service: archive count
	archiveBytes int // service: plaintext bytes per archive
	archiveChunk int // service: chunk size
	cacheBytes   int64
	readMin      int // READ_RANGE sizes
	readMax      int
	payload      int // ENCODE/DECODE plaintext size
	pool         int // distinct codec payloads per run

	trainSample int // arc.Options.TrainSampleBytes (0 = the default)
	minIters    int // file iterations at least
	minReqs     int // requests per connection at least
	warmReqs    int // leading requests per connection left out of latency and rate
	kernelBytes int // kernel ladder buffer
}

var scales = map[string]scale{
	"full": {
		name: "full",
		cesm: [2]int{1024, 2048}, isabel: [3]int{64, 192, 192}, nyx: [3]int{128, 128, 128},
		rates:       []float64{8, 16, 32},
		flipsPerMiB: 100000.0 / 48,
		archives:    4, archiveBytes: 8 << 20, archiveChunk: 256 << 10, cacheBytes: 16 << 20,
		readMin: 4 << 10, readMax: 64 << 10, payload: 64 << 10, pool: 64,
		minIters: 3, minReqs: 600, warmReqs: 500,
		kernelBytes: 32 << 20,
	},
	"smoke": {
		name: "smoke",
		cesm: [2]int{48, 96}, isabel: [3]int{8, 24, 24}, nyx: [3]int{16, 16, 16},
		rates:       []float64{8, 16, 32},
		flipsPerMiB: 100000.0 / 48,
		archives:    4, archiveBytes: 32 << 10, archiveChunk: 4 << 10, cacheBytes: 64 << 10,
		readMin: 256, readMax: 2 << 10, payload: 4 << 10, pool: 8,
		trainSample: 16 << 10,
		minIters:    2, minReqs: 120, warmReqs: 20,
		kernelBytes: 64 << 10,
	},
}
