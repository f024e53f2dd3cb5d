package metrics

// Live service counters: the data-integrity half of this package
// scores reconstructions after the fact; this half watches a running
// archive service. Everything here is safe for concurrent use and
// allocation-free on the update path — counters are atomics and the
// latency histogram is a fixed array of buckets — so the serving hot
// path can record every request without a lock or a GC ripple.

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of latency buckets: two sub-buckets per
// power of two of nanoseconds (half-octave resolution, ~±25% on a
// reported quantile), spanning 1ns to the full int64 range.
const histBuckets = 128

// Histogram is a concurrency-safe latency histogram with half-octave
// log-scaled buckets. The zero value is ready to use. Observe is
// wait-free; quantile queries walk the fixed bucket array and may run
// concurrently with observers (a racing quantile sees some prefix of
// the in-flight updates, which is the best any live view can offer).
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	max    atomic.Int64  // nanoseconds
}

// bucketIndex maps a duration to its bucket: index 2*octave plus one
// when the half-octave bit is set.
func bucketIndex(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	o := bits.Len64(uint64(ns)) - 1
	i := 2 * o
	if o >= 1 && ns&(1<<(o-1)) != 0 {
		i++
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketUpper returns the inclusive upper bound of bucket i in
// nanoseconds.
func bucketUpper(i int) int64 {
	o := i / 2
	lo := int64(1) << o
	if i%2 == 0 {
		if o == 0 {
			return 1
		}
		return lo + lo/2 - 1
	}
	if o >= 62 {
		return math.MaxInt64
	}
	return lo<<1 - 1
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(ns))
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean observed latency (0 with no samples).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns an upper bound on the p-quantile (p in [0,1]) with
// half-octave resolution, clamped to the observed maximum. With no
// samples it returns 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			up := bucketUpper(i)
			if m := h.max.Load(); m > 0 && up > m {
				up = m
			}
			return time.Duration(up)
		}
	}
	return time.Duration(h.max.Load())
}

// HistogramSnapshot is a point-in-time JSON-marshalable view.
type HistogramSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Snapshot captures the histogram's current quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:  h.Count(),
		MeanMs: durMs(h.Mean()),
		P50Ms:  durMs(h.Quantile(0.50)),
		P90Ms:  durMs(h.Quantile(0.90)),
		P99Ms:  durMs(h.Quantile(0.99)),
		MaxMs:  durMs(h.Max()),
	}
}

func durMs(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
}

// opCounters is one operation's request/error tally.
type opCounters struct {
	requests atomic.Int64
	errors   atomic.Int64
}

// Live is the counter set a long-running service exposes on its stats
// endpoint: per-operation request and error counts, byte traffic,
// repair totals, connection gauges, and a request-latency histogram.
// Construct with NewLive; all methods are safe for concurrent use.
type Live struct {
	start   time.Time
	opNames []string
	ops     []opCounters

	connsTotal  atomic.Int64
	connsActive atomic.Int64
	frameErrors atomic.Int64

	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	repairedRequests atomic.Int64
	uncorrectable    atomic.Int64
	detectedBlocks   atomic.Int64
	correctedBits    atomic.Int64
	correctedBlocks  atomic.Int64
	digestMismatches atomic.Int64

	latency Histogram

	// cacheSrc holds a func() CacheStats installed by SetCacheSource;
	// Snapshot polls it so the STATS payload carries live cache
	// counters without this package importing the cache.
	cacheSrc atomic.Value
}

// CacheStats is a point-in-time view of a chunk cache's counters, as
// embedded in a LiveSnapshot (and exposed directly by the cache).
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// NewLive creates a Live counter set with one request/error pair per
// named operation. Operation indexes follow the argument order.
func NewLive(opNames ...string) *Live {
	return &Live{
		start:   time.Now(),
		opNames: append([]string(nil), opNames...),
		ops:     make([]opCounters, len(opNames)),
	}
}

// ConnOpened records an accepted connection.
func (l *Live) ConnOpened() {
	l.connsTotal.Add(1)
	l.connsActive.Add(1)
}

// ConnClosed records a finished connection.
func (l *Live) ConnClosed() { l.connsActive.Add(-1) }

// FrameError records a malformed, oversized, or truncated frame that
// never resolved to an operation.
func (l *Live) FrameError() { l.frameErrors.Add(1) }

// RequestDone records one completed request: its operation index, the
// payload bytes read and written, whether it failed, and its latency
// from frame-decoded to response-ready.
func (l *Live) RequestDone(op int, failed bool, bytesIn, bytesOut int, d time.Duration) {
	if op >= 0 && op < len(l.ops) {
		l.ops[op].requests.Add(1)
		if failed {
			l.ops[op].errors.Add(1)
		}
	}
	l.bytesIn.Add(int64(bytesIn))
	l.bytesOut.Add(int64(bytesOut))
	l.latency.Observe(d)
}

// RepairObserved accumulates a decode/verify/repair report: blocks
// with detected damage, bit and block corrections applied, chunks the
// ECC passed but their digest refused, and whether the damage exceeded
// the code's budget.
func (l *Live) RepairObserved(detectedBlocks, correctedBits, correctedBlocks, digestMismatches int, uncorrectable bool) {
	l.detectedBlocks.Add(int64(detectedBlocks))
	l.correctedBits.Add(int64(correctedBits))
	l.correctedBlocks.Add(int64(correctedBlocks))
	l.digestMismatches.Add(int64(digestMismatches))
	if correctedBits > 0 || correctedBlocks > 0 {
		l.repairedRequests.Add(1)
	}
	if uncorrectable {
		l.uncorrectable.Add(1)
	}
}

// Latency exposes the request-latency histogram for direct observation
// (e.g. by tests) without going through RequestDone.
func (l *Live) Latency() *Histogram { return &l.latency }

// SetCacheSource installs the function Snapshot polls for cache
// counters. A nil source (or never calling this) leaves the snapshot's
// cache field absent.
func (l *Live) SetCacheSource(src func() CacheStats) {
	if src != nil {
		l.cacheSrc.Store(src)
	}
}

// OpSnapshot is one operation's counters in a LiveSnapshot.
type OpSnapshot struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
}

// LiveSnapshot is a point-in-time, JSON-marshalable view of a Live
// counter set — the payload of the service's STATS response.
type LiveSnapshot struct {
	UptimeSeconds    float64           `json:"uptime_seconds"`
	ConnsTotal       int64             `json:"conns_total"`
	ConnsActive      int64             `json:"conns_active"`
	Requests         int64             `json:"requests"`
	Errors           int64             `json:"errors"`
	FrameErrors      int64             `json:"frame_errors"`
	BytesIn          int64             `json:"bytes_in"`
	BytesOut         int64             `json:"bytes_out"`
	RepairedRequests int64             `json:"repaired_requests"`
	Uncorrectable    int64             `json:"uncorrectable"`
	DetectedBlocks   int64             `json:"detected_blocks"`
	CorrectedBits    int64             `json:"corrected_bits"`
	CorrectedBlocks  int64             `json:"corrected_blocks"`
	DigestMismatches int64             `json:"digest_mismatches"`
	Latency          HistogramSnapshot `json:"latency"`
	Cache            *CacheStats       `json:"cache,omitempty"`
	Ops              []OpSnapshot      `json:"ops"`
}

// Snapshot captures every counter. Concurrent updates may land between
// field reads; each individual counter is still exact.
func (l *Live) Snapshot() LiveSnapshot {
	s := LiveSnapshot{
		UptimeSeconds:    time.Since(l.start).Seconds(),
		ConnsTotal:       l.connsTotal.Load(),
		ConnsActive:      l.connsActive.Load(),
		FrameErrors:      l.frameErrors.Load(),
		BytesIn:          l.bytesIn.Load(),
		BytesOut:         l.bytesOut.Load(),
		RepairedRequests: l.repairedRequests.Load(),
		Uncorrectable:    l.uncorrectable.Load(),
		DetectedBlocks:   l.detectedBlocks.Load(),
		CorrectedBits:    l.correctedBits.Load(),
		CorrectedBlocks:  l.correctedBlocks.Load(),
		DigestMismatches: l.digestMismatches.Load(),
		Latency:          l.latency.Snapshot(),
		Ops:              make([]OpSnapshot, len(l.ops)),
	}
	if src, ok := l.cacheSrc.Load().(func() CacheStats); ok {
		cs := src()
		s.Cache = &cs
	}
	for i := range l.ops {
		req := l.ops[i].requests.Load()
		errs := l.ops[i].errors.Load()
		s.Ops[i] = OpSnapshot{Name: l.opNames[i], Requests: req, Errors: errs}
		s.Requests += req
		s.Errors += errs
	}
	return s
}
