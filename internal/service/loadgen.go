package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// WorkloadOptions parameterizes an arcload run against an arcd
// server: how many clients, how many requests each, the operation
// mix, the payload-size distribution, and the mid-flight corruption
// campaign. The zero value plus an Addr is a usable smoke workload.
type WorkloadOptions struct {
	// Addr is the arcd address to hammer.
	Addr string
	// Clients is the number of concurrent connections (<= 0 means 4).
	Clients int
	// Requests is the number of requests per client (<= 0 means 50).
	// An encode and the decode of its container count separately.
	Requests int
	// EncodeRatio is the target fraction of requests that are encodes
	// (<= 0 means 0.5; clamped to [0.1, 1] so decodes always have
	// containers to chew on).
	EncodeRatio float64
	// MinSize/MaxSize bound the plaintext payload sizes in bytes
	// (defaults 64 and 256<<10). Sizes are Zipf-skewed toward
	// MinSize, the hot-small/cold-large shape of real archives.
	MinSize, MaxSize int
	// ZipfS is the Zipf skew parameter (> 1; default 1.4; larger
	// means smaller payloads dominate harder).
	ZipfS float64
	// CorruptRate is the fraction of decode-side requests whose
	// container is damaged mid-flight before being sent, by one of
	// faultinject.Patterns() drawn at random and applied anywhere in
	// the container (default 0; the chaos suite runs 0.6).
	CorruptRate float64
	// Method/Param is the ECC configuration requested on encodes
	// (default SEC-DED over 64-bit blocks).
	Method ecc.Method
	Param  int
	// Seed makes runs reproducible (0 means 1).
	Seed int64
	// MaxPayload bounds frames on the client side (<= 0 means
	// DefaultMaxPayload).
	MaxPayload int
	// RangeRatio is the fraction of requests issued as READ_RANGE
	// calls against RangeArchive (0 disables; clamped to [0, 0.9] so
	// the encode/decode mix keeps running). Requires a server with an
	// archive root.
	RangeRatio float64
	// RangeArchive is the archive file name (within the server's root)
	// ranged reads address.
	RangeArchive string
	// RangePlain is the plaintext RangeArchive encodes — the ground
	// truth every ranged response is byte-compared against.
	RangePlain []byte
}

func (o WorkloadOptions) withDefaults() (WorkloadOptions, error) {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Requests <= 0 {
		o.Requests = 50
	}
	if o.EncodeRatio <= 0 {
		o.EncodeRatio = 0.5
	}
	if o.EncodeRatio < 0.1 {
		o.EncodeRatio = 0.1
	}
	if o.EncodeRatio > 1 {
		o.EncodeRatio = 1
	}
	if o.MinSize <= 0 {
		o.MinSize = 64
	}
	if o.MaxSize <= 0 {
		o.MaxSize = 256 << 10
	}
	if o.MaxSize < o.MinSize {
		o.MaxSize = o.MinSize
	}
	if o.ZipfS <= 1 {
		o.ZipfS = 1.4
	}
	if o.Method == 0 {
		o.Method, o.Param = ecc.MethodSECDED, 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RangeRatio < 0 {
		o.RangeRatio = 0
	}
	if o.RangeRatio > 0.9 {
		o.RangeRatio = 0.9
	}
	if o.RangeRatio > 0 && (o.RangeArchive == "" || len(o.RangePlain) == 0) {
		return o, errors.New("service: the range workload requires RangeArchive and its RangePlain ground truth")
	}
	return o, nil
}

// WorkloadResult is an arcload run's summary: the op and corruption
// accounting, the integrity verdicts, and the client-side service
// levels. It is the JSON arcload prints.
type WorkloadResult struct {
	Clients    int `json:"clients"`
	Requests   int `json:"requests"`
	Encodes    int `json:"encodes"`
	Decodes    int `json:"decodes"`
	Verifies   int `json:"verifies"`
	Repairs    int `json:"repairs"`
	RangeReads int `json:"range_reads"`
	// Errors counts unexpected failures: transport errors, protocol
	// violations, and any response that contradicts the ground truth.
	// A healthy run reports 0.
	Errors int `json:"errors"`

	// Corrupted tallies the requests whose container was damaged
	// before sending, by fault pattern name and ground-truth verdict:
	// repaired (OK and exact bytes), reported (uncorrectable or
	// corrupt), silent (OK and wrong bytes).
	Corrupted map[string]faultinject.Verdicts `json:"corrupted,omitempty"`
	// CorrectedBits sums the bit corrections the server's responses
	// reported: READ_RANGE repairs of the archive under reads, and the
	// repairs of damaged containers.
	CorrectedBits int `json:"corrected_bits"`
	// SilentMismatches counts responses that returned OK with bytes
	// differing from the original, damaged or not — the catastrophic
	// outcome the ECC stack exists to prevent. Any value but 0 is a bug.
	SilentMismatches int `json:"silent_mismatches"`

	BytesSent     int64   `json:"bytes_sent"`
	BytesReceived int64   `json:"bytes_received"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	RequestsPerS  float64 `json:"requests_per_s"`
	// ThroughputMBs is payload traffic (both directions) over the
	// wall clock.
	ThroughputMBs float64 `json:"throughput_mb_s"`

	Latency metrics.HistogramSnapshot `json:"latency"`

	// ServerStats embeds the server's own STATS snapshot from the end
	// of the run, when fetching it succeeded.
	ServerStats json.RawMessage `json:"server_stats,omitempty"`
}

// clientTally accumulates one worker's counts, merged under the
// runner's lock after the worker exits.
type clientTally struct {
	result WorkloadResult
	err    error
}

// cachedItem pairs a container with the plaintext it protects — the
// ground truth a decode is byte-compared against.
type cachedItem struct {
	original  []byte
	container []byte
}

// RunWorkload drives one arcload campaign and blocks until every
// client finishes or ctx is cancelled (clients notice cancellation on
// their next request boundary; a non-nil ctx error is returned after
// the merge). Transport-level failures surface in the error; result
// integrity verdicts live in the WorkloadResult.
func RunWorkload(ctx context.Context, opts WorkloadOptions) (*WorkloadResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		merged  WorkloadResult
		firstEs error
	)
	lat := &metrics.Histogram{}
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < opts.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			t := runClient(ctx, opts, cl, lat)
			mu.Lock()
			defer mu.Unlock()
			mergeResults(&merged, &t.result)
			if t.err != nil && firstEs == nil {
				firstEs = t.err
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged.Clients = opts.Clients
	merged.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	if elapsed > 0 {
		merged.RequestsPerS = float64(merged.Requests) / elapsed.Seconds()
		merged.ThroughputMBs = float64(merged.BytesSent+merged.BytesReceived) / (1 << 20) / elapsed.Seconds()
	}
	merged.Latency = lat.Snapshot()

	if firstEs == nil {
		firstEs = fetchServerStats(ctx, opts, &merged)
	}
	if firstEs == nil {
		firstEs = ctx.Err()
	}
	return &merged, firstEs
}

// fetchServerStats grabs the server's STATS snapshot for the result.
func fetchServerStats(ctx context.Context, opts WorkloadOptions, res *WorkloadResult) error {
	c, err := Dial(ctx, opts.Addr, opts.MaxPayload)
	if err != nil {
		return fmt.Errorf("service: stats fetch: %w", err)
	}
	defer func() { _ = c.Close() }() // read side already done
	raw, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("service: stats fetch: %w", err)
	}
	res.ServerStats = raw
	return nil
}

func mergeResults(dst, src *WorkloadResult) {
	dst.Requests += src.Requests
	dst.Encodes += src.Encodes
	dst.Decodes += src.Decodes
	dst.Verifies += src.Verifies
	dst.Repairs += src.Repairs
	dst.RangeReads += src.RangeReads
	dst.Errors += src.Errors
	for name, v := range src.Corrupted {
		dst.noteCorrupted(name, v)
	}
	dst.CorrectedBits += src.CorrectedBits
	dst.SilentMismatches += src.SilentMismatches
	dst.BytesSent += src.BytesSent
	dst.BytesReceived += src.BytesReceived
}

// noteCorrupted adds v to the verdicts of fault pattern name.
func (r *WorkloadResult) noteCorrupted(name string, v faultinject.Verdicts) {
	if r.Corrupted == nil {
		r.Corrupted = make(map[string]faultinject.Verdicts)
	}
	sum := r.Corrupted[name]
	sum.Merge(v)
	r.Corrupted[name] = sum
}

// CorruptedTotal sums the verdicts over every fault pattern.
func (r *WorkloadResult) CorruptedTotal() faultinject.Verdicts {
	var sum faultinject.Verdicts
	for _, v := range r.Corrupted {
		sum.Merge(v)
	}
	return sum
}

// runClient is one worker: a dedicated connection issuing Requests
// requests with the configured mix.
func runClient(ctx context.Context, opts WorkloadOptions, id int, lat *metrics.Histogram) clientTally {
	var t clientTally
	rng := rand.New(rand.NewSource(opts.Seed + int64(id)*7919))
	zipf := rand.NewZipf(rng, opts.ZipfS, 1, uint64(opts.MaxSize-opts.MinSize))

	c, err := Dial(ctx, opts.Addr, opts.MaxPayload)
	if err != nil {
		t.err = fmt.Errorf("service: client %d dial: %w", id, err)
		return t
	}
	defer func() { _ = c.Close() }() // the tally already has any real error

	// cache holds recent encodes for the decode side of the mix.
	var cache []cachedItem
	for i := 0; i < opts.Requests; i++ {
		if ctx.Err() != nil {
			return t
		}
		if opts.RangeRatio > 0 && rng.Float64() < opts.RangeRatio {
			if err := clientRangeRead(ctx, c, opts, rng, lat, &t); err != nil {
				t.err = fmt.Errorf("service: client %d: %w", id, err)
				return t
			}
			continue
		}
		if len(cache) == 0 || rng.Float64() < opts.EncodeRatio {
			item, err := clientEncode(ctx, c, opts, rng, zipf, lat, &t)
			if err != nil {
				t.err = fmt.Errorf("service: client %d: %w", id, err)
				return t
			}
			if len(cache) < 32 {
				cache = append(cache, item)
			} else {
				cache[rng.Intn(len(cache))] = item
			}
			continue
		}
		item := cache[rng.Intn(len(cache))]
		if err := clientDecodeSide(ctx, c, opts, rng, item, lat, &t); err != nil {
			t.err = fmt.Errorf("service: client %d: %w", id, err)
			return t
		}
	}
	return t
}

// clientEncode issues one ENCODE and caches the round trip's ground
// truth after sanity-decoding the container locally is skipped — the
// decode side of the mix does that through the server.
func clientEncode(ctx context.Context, c *Client, opts WorkloadOptions, rng *rand.Rand, zipf *rand.Zipf, lat *metrics.Histogram, t *clientTally) (cachedItem, error) {
	size := opts.MinSize + int(zipf.Uint64())
	data := make([]byte, size)
	rng.Read(data)

	start := time.Now()
	container, err := c.Encode(ctx, opts.Method, opts.Param, data)
	lat.Observe(time.Since(start))
	t.result.Requests++
	t.result.Encodes++
	t.result.BytesSent += int64(size)
	if err != nil {
		t.result.Errors++
		return cachedItem{}, fmt.Errorf("encode (%d bytes): %w", size, err)
	}
	t.result.BytesReceived += int64(len(container))
	return cachedItem{original: data, container: container}, nil
}

// clientRangeRead issues one READ_RANGE against the configured
// archive and byte-compares the response with the plaintext ground
// truth — a mismatch is the same silent-wrongness verdict a bad
// decode earns.
func clientRangeRead(ctx context.Context, c *Client, opts WorkloadOptions, rng *rand.Rand, lat *metrics.Histogram, t *clientTally) error {
	size := int64(len(opts.RangePlain))
	first := rng.Int63n(size)
	maxN := size - first
	if maxN > 64<<10 {
		maxN = 64 << 10
	}
	n := 1 + rng.Int63n(maxN)

	start := time.Now()
	data, rep, err := c.ReadRange(ctx, opts.RangeArchive, first, n)
	lat.Observe(time.Since(start))
	t.result.Requests++
	t.result.RangeReads++
	t.result.CorrectedBits += rep.CorrectedBits
	t.result.BytesSent += rangeReqHeaderLen + int64(len(opts.RangeArchive))
	if err != nil {
		t.result.Errors++
		if transportError(err) {
			return fmt.Errorf("read-range [%d, +%d): %w", first, n, err)
		}
		return nil
	}
	t.result.BytesReceived += int64(len(data))
	if !bytes.Equal(data, opts.RangePlain[first:first+n]) {
		t.result.SilentMismatches++
		t.result.Errors++
	}
	return nil
}

// clientDecodeSide issues one decode-shaped request (DECODE, VERIFY,
// or REPAIR), optionally damaging the container first, and verdicts
// the response against the ground truth.
func clientDecodeSide(ctx context.Context, c *Client, opts WorkloadOptions, rng *rand.Rand, item cachedItem, lat *metrics.Histogram, t *clientTally) error {
	container := item.container
	var fault faultinject.Injector
	if opts.CorruptRate > 0 && rng.Float64() < opts.CorruptRate {
		patterns := faultinject.Patterns()
		fault = patterns[rng.Intn(len(patterns))]
		container = fault.Inject(container, rng)
	}

	// Rotate through the three decode-shaped ops; REPAIR and VERIFY
	// each take a slice of the traffic so every server path sees load.
	// VERIFY answers no bytes to judge, so damaged containers take
	// REPAIR in its place.
	op := OpDecode
	switch r := rng.Float64(); {
	case r < 0.15 && fault == nil:
		op = OpVerify
	case r < 0.3:
		op = OpRepair
	}

	start := time.Now()
	var (
		data []byte
		rep  Report
		err  error
	)
	switch op {
	case OpVerify:
		rep, err = c.Verify(ctx, container)
		t.result.Verifies++
	case OpRepair:
		var fresh []byte
		fresh, rep, err = c.Repair(ctx, container)
		t.result.Repairs++
		if err == nil {
			// A repaired container must decode (locally — the ground
			// truth check must not trust the server twice) to the
			// original bytes.
			if res, derr := core.DecodeContainer(nil, fresh, 1); derr == nil {
				data = res.Data
			}
		}
	default:
		data, rep, err = c.Decode(ctx, container)
		t.result.Decodes++
	}
	lat.Observe(time.Since(start))
	t.result.Requests++
	t.result.CorrectedBits += rep.CorrectedBits
	t.result.BytesSent += int64(len(container))
	t.result.BytesReceived += int64(len(data))

	var re *RemoteErr
	reported := errors.As(err, &re) && (re.Status == StatusUncorrectable || re.Status == StatusBadRequest)
	switch {
	case err != nil && (fault == nil || !reported):
		t.result.Errors++
		if transportError(err) {
			return fmt.Errorf("%s: %w", op, err)
		}
		return nil
	case fault != nil:
		var v faultinject.Verdicts
		v.Add(data, item.original, err)
		t.result.noteCorrupted(fault.Name(), v)
	}
	if err == nil && op != OpVerify && !bytes.Equal(data, item.original) {
		t.result.SilentMismatches++
		t.result.Errors++
	}
	return nil
}

// transportError distinguishes connection-level failures (fatal for
// the client loop) from per-request server verdicts.
func transportError(err error) bool {
	var re *RemoteErr
	return !errors.As(err, &re)
}
