package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/gf256"
)

// TrainEntry records measured throughput for one (configuration,
// thread-count) point — the model the optimizer's throughput
// constraint consults.
type TrainEntry struct {
	Config  string  `json:"config"`
	Threads int     `json:"threads"`
	EncMBs  float64 `json:"enc_mbs"`
	DecMBs  float64 `json:"dec_mbs"`
}

// cacheVersion is the train-cache.json format version. The file before
// it had no version field (it reads as 0) and is discarded.
const cacheVersion = 2

// codecRevision is part of the cache fingerprint. A PR that changes the
// speed of an ECC kernel or of the chunk codec bumps it, so tables
// measured against the old code are measured again instead of trusted.
const codecRevision = 6

// Fingerprint says where a table was measured and against which code;
// throughputs from another fingerprint are not comparable.
type Fingerprint struct {
	GOARCH        string `json:"goarch"`
	GF256Tier     string `json:"gf256_tier"`
	CPUFeatures   string `json:"cpu_features"`
	CodecRevision int    `json:"codec_revision"`
}

func hostFingerprint() Fingerprint {
	return Fingerprint{
		GOARCH:        runtime.GOARCH,
		GF256Tier:     gf256.ActiveTier(),
		CPUFeatures:   strings.Join(gf256.Features(), ","),
		CodecRevision: codecRevision,
	}
}

// TrainTable is the trained model: the points measured so far.
type TrainTable struct {
	Version     int         `json:"version"`
	Fingerprint Fingerprint `json:"fingerprint"`
	// SampleBytes is the training buffer size the measurements used.
	SampleBytes int          `json:"sample_bytes"`
	Entries     []TrainEntry `json:"entries"`
}

// comparable reports whether two tables' throughputs can be mixed.
func (t *TrainTable) comparable(o *TrainTable) bool {
	return t.Version == o.Version && t.Fingerprint == o.Fingerprint && t.SampleBytes == o.SampleBytes
}

// Lookup returns the entry for a configuration at a thread count.
func (t *TrainTable) Lookup(config string, threads int) (TrainEntry, bool) {
	for _, e := range t.Entries {
		if e.Config == config && e.Threads == threads {
			return e, true
		}
	}
	return TrainEntry{}, false
}

// sorted returns a copy ordered by configuration name, then threads,
// followed by extra entries the table lacks.
func (t *TrainTable) sorted(extra ...TrainEntry) *TrainTable {
	c := *t
	c.Entries = append([]TrainEntry(nil), t.Entries...)
	for _, e := range extra {
		if _, ok := c.Lookup(e.Config, e.Threads); !ok {
			c.Entries = append(c.Entries, e)
		}
	}
	sort.Slice(c.Entries, func(i, j int) bool {
		a, b := c.Entries[i], c.Entries[j]
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		return a.Threads < b.Threads
	})
	return &c
}

// trainThreadCounts returns the thread counts to train for a maximum:
// powers of two up to max, plus max itself (the paper trains "an
// increasing number of threads up to the maximum available").
func trainThreadCounts(maxThreads int) []int {
	if maxThreads < 1 {
		maxThreads = 1
	}
	var ts []int
	for t := 1; t < maxThreads; t *= 2 {
		ts = append(ts, t)
	}
	ts = append(ts, maxThreads)
	return ts
}

// Trainer measures configuration throughput and maintains the cache.
type Trainer struct {
	// CacheDir holds train-cache.json; empty disables persistence.
	CacheDir string
	// SampleBytes sizes the measurement buffer (default
	// DefaultChunkSize; tests use much less).
	SampleBytes int
	// measure stands in for the timing probe in tests (nil = measure).
	measure func(cfg Config, threads, sampleBytes int) (encMBs, decMBs float64, err error)
}

func (tr *Trainer) sampleBytes() int {
	if tr.SampleBytes > 0 {
		return tr.SampleBytes
	}
	return DefaultChunkSize
}

func (tr *Trainer) cachePath() string {
	if tr.CacheDir == "" {
		return ""
	}
	return filepath.Join(tr.CacheDir, "train-cache.json")
}

// newTable returns an empty table stamped for this host and trainer.
func (tr *Trainer) newTable() *TrainTable {
	return &TrainTable{Version: cacheVersion, Fingerprint: hostFingerprint(), SampleBytes: tr.sampleBytes()}
}

// readTable parses the cache file, nil when there is none to use (an
// empty path, persistence off, reads as none).
func readTable(path string) *TrainTable {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var t TrainTable
	if json.Unmarshal(raw, &t) != nil {
		return nil
	}
	return &t
}

// LoadCache reads the cached table, returning an empty table when no
// usable cache exists: none on disk, unreadable, or written under
// another format version, fingerprint or sample size, any of which
// would make its throughputs incomparable with what this trainer
// measures.
func (tr *Trainer) LoadCache() *TrainTable {
	empty := tr.newTable()
	if t := readTable(tr.cachePath()); t != nil && t.comparable(empty) {
		return t
	}
	return empty
}

// SaveCache persists the table (no-op without a cache dir). Points of
// a comparable table already on disk that t lacks are kept, so
// processes sharing the directory add to each other's partial tables;
// where both have a point, t's wins. The file is replaced atomically.
func (tr *Trainer) SaveCache(t *TrainTable) error {
	p := tr.cachePath()
	if p == "" {
		return nil
	}
	if err := os.MkdirAll(tr.CacheDir, 0o755); err != nil {
		return fmt.Errorf("core: create cache dir: %w", err)
	}
	var kept []TrainEntry
	if disk := readTable(p); disk != nil && disk.comparable(t) {
		kept = disk.Entries
	}
	raw, err := json.MarshalIndent(t.sorted(kept...), "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(tr.CacheDir, "train-cache-*.tmp")
	if err != nil {
		return fmt.Errorf("core: write cache: %w", err)
	}
	_, err = f.Write(raw)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), p)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: the write error is the one to report
		return fmt.Errorf("core: write cache: %w", err)
	}
	return nil
}

// point returns the table's entry for cfg at threads, measuring and
// appending it first when the table lacks it; measured says which.
func (tr *Trainer) point(table *TrainTable, cfg Config, threads int) (e TrainEntry, measured bool, err error) {
	name := cfg.String()
	if e, ok := table.Lookup(name, threads); ok {
		return e, false, nil
	}
	m := tr.measure
	if m == nil {
		m = measure
	}
	enc, dec, err := m(cfg, threads, tr.sampleBytes())
	if err != nil {
		return TrainEntry{}, false, err
	}
	e = TrainEntry{Config: name, Threads: threads, EncMBs: enc, DecMBs: dec}
	table.Entries = append(table.Entries, e)
	return e, true, nil
}

// Train completes the table: every configuration at every thread count
// up to maxThreads, measuring only missing points (the paper's
// incremental training). It returns the table and the number of points
// measured.
func (tr *Trainer) Train(table *TrainTable, maxThreads int) (*TrainTable, int, error) {
	if table == nil {
		table = tr.newTable()
	}
	measured := 0
	for _, cfg := range AllConfigs() {
		for _, threads := range trainThreadCounts(maxThreads) {
			_, m, err := tr.point(table, cfg, threads)
			if err != nil {
				return nil, measured, err
			}
			if m {
				measured++
			}
		}
	}
	return table, measured, nil
}

// trainingSample builds a reproducible pseudo-random buffer; content
// barely affects ECC throughput but determinism keeps runs comparable.
func trainingSample(n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(0x41524331)).Read(buf) // "ARC1"
	return buf
}

// probe is what measure keeps between repetitions and points: the
// sample, both destination buffers and the codec scratch, so that what
// is timed is the chunk codec and not the page faults of fresh buffers.
type probe struct {
	sample, enc, dec []byte
	scratch          chunkScratch
}

// probePool keeps a probe alive while points are being measured and
// lets the collector have it back afterwards.
var probePool sync.Pool // of *probe

// trainReps is the number of timed repetitions per point (after one
// untimed warm-up); the median is reported.
const trainReps = 3

// measure times one configuration at one thread count on the path that
// runs: encodeChunk and decodeChunk over a sample of sampleBytes.
func measure(cfg Config, threads, sampleBytes int) (encMBs, decMBs float64, err error) {
	p, _ := probePool.Get().(*probe)
	if p == nil || len(p.sample) != sampleBytes {
		p = &probe{sample: trainingSample(sampleBytes)}
	}
	defer probePool.Put(p)
	choice := Choice{Config: cfg, Threads: threads}
	var encT, decT [trainReps]time.Duration
	for r := -1; r < trainReps; r++ { // r == -1 warms buffers and caches up
		t0 := time.Now()
		enc, h, err := encodeChunk(p.enc, p.sample, 0, choice, &p.scratch)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		p.enc = enc
		dec, rep, err := decodeChunk(p.dec, h, enc[ContainerOverheadBytes:], 0, threads, &p.scratch)
		t2 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("core: training decode failed for %s: %w", cfg, err)
		}
		p.dec = dec
		if !bytes.Equal(dec, p.sample) || rep.DetectedBlocks != 0 {
			return 0, 0, fmt.Errorf("core: training decode failed for %s: clean bytes came back changed or flagged (%d blocks)", cfg, rep.DetectedBlocks)
		}
		if r >= 0 {
			encT[r], decT[r] = t1.Sub(t0), t2.Sub(t1)
		}
	}
	mb := float64(sampleBytes) / (1 << 20)
	return mb / medianSeconds(encT), mb / medianSeconds(decT), nil
}

// medianSeconds returns the median of the repetitions, at least 1 ns.
func medianSeconds(d [trainReps]time.Duration) float64 {
	sort.Slice(d[:], func(i, j int) bool { return d[i] < d[j] })
	if s := d[trainReps/2].Seconds(); s > 0 {
		return s
	}
	return 1e-9
}

// DefaultCacheDir returns the ARC cache directory: $ARC_CACHE_DIR if
// set, else <user cache dir>/arc.
func DefaultCacheDir() string {
	if d := os.Getenv("ARC_CACHE_DIR"); d != "" {
		return d
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return ".arc-cache"
	}
	return filepath.Join(base, "arc")
}
