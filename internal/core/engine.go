package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ecc"
)

// AnyThreads requests as many threads as the host offers (the paper's
// ARC_ANY_THREADS).
const AnyThreads = 0

// Engine is the ARC engine: a constraint-driven encoder and decoder
// for protecting byte streams. Construct with NewEngine (arc_init) and
// release with Close (arc_close). Where arc_init trains every
// configuration up front, the engine measures a (configuration,
// threads) point the first time a request's decision needs it and
// caches it; Table completes the training on demand.
type Engine struct {
	mu         sync.Mutex
	trainer    *Trainer
	table      *TrainTable // guarded by mu; grows as requests need points
	maxThreads int
	trained    int // points this engine measured
	closed     bool
	dirty      bool // table changed since last save
}

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// MaxThreads caps ARC's parallelism (AnyThreads = all CPUs).
	MaxThreads int
	// CacheDir overrides the training-cache directory ("" = default;
	// "-" disables persistence).
	CacheDir string
	// SampleBytes sizes the training buffer (0 = DefaultChunkSize).
	SampleBytes int
}

// NewEngine initializes ARC: it loads any cached training data for
// this machine and measures nothing yet.
func NewEngine(opts EngineOptions) (*Engine, error) {
	maxThreads := opts.MaxThreads
	if maxThreads <= 0 {
		maxThreads = runtime.GOMAXPROCS(0)
	}
	dir := opts.CacheDir
	switch dir {
	case "":
		dir = DefaultCacheDir()
	case "-":
		dir = ""
	}
	tr := &Trainer{CacheDir: dir, SampleBytes: opts.SampleBytes}
	return &Engine{trainer: tr, table: tr.LoadCache(), maxThreads: maxThreads}, nil
}

// MaxThreads returns the engine's thread cap.
func (e *Engine) MaxThreads() int { return e.maxThreads }

// TrainedPoints returns how many (config, threads) points the engine
// has measured so far (0 while the cache answers every request).
func (e *Engine) TrainedPoints() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trained
}

// point returns the throughput of cfg at threads, measuring it first
// when the table lacks it. The measurement runs under the mutex, so
// concurrent requests for one point measure it once and measurements
// never time each other.
func (e *Engine) point(cfg Config, threads int) (TrainEntry, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, measured, err := e.trainer.point(e.table, cfg, threads)
	if measured {
		e.trained++
		e.dirty = true
	}
	return ent, err
}

// Table completes the training — every configuration at every thread
// count up to the cap, the paper's arc_init — and returns a sorted
// snapshot. Training stops at a configuration that cannot be measured
// (a broken custom code); the snapshot then holds the points before it.
func (e *Engine) Table() *TrainTable {
	e.mu.Lock()
	defer e.mu.Unlock()
	// The error is dropped for want of a return slot: the points stay
	// missing and the request that needs one of them reports why.
	_, measured, _ := e.trainer.Train(e.table, e.maxThreads)
	if measured > 0 {
		e.trained += measured
		e.dirty = true
	}
	return e.table.sorted()
}

// Optimizer returns a constraint optimizer that asks the engine for
// the points its decision needs.
func (e *Engine) Optimizer() *Optimizer {
	return &Optimizer{MaxThreads: e.maxThreads, eng: e}
}

// ErrClosed reports use after Close.
var ErrClosed = errors.New("core: engine is closed")

// EncodeResult carries an encode's outputs.
type EncodeResult struct {
	Encoded []byte
	Choice  Choice
	// ActualOverhead is the realized size overhead including container
	// and padding costs (can differ from the asymptotic figure on
	// small inputs).
	ActualOverhead float64
}

// Encode protects data under the given constraints (arc_encode): mem
// is the storage-overhead budget as a fraction of len(data) (AnyMem to
// lift), bw the minimum encode throughput in MB/s (AnyBW to lift), and
// res the resiliency constraint (AnyECC to lift).
func (e *Engine) Encode(data []byte, mem, bw float64, res Resiliency) (*EncodeResult, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	opt := e.Optimizer()
	e.mu.Unlock()

	choice, err := opt.Joint(mem, bw, res)
	if err != nil {
		return nil, err
	}
	return e.EncodeWith(data, choice)
}

// EncodeWith protects data with an explicit optimizer choice, for
// callers that want to inspect or override the selection.
func (e *Engine) EncodeWith(data []byte, choice Choice) (*EncodeResult, error) {
	return EncodeContainerWith(data, choice)
}

// EncodeContainerWith encodes without an engine: an explicit choice
// needs no trained state, just as DecodeContainer needs none — the
// pair makes a stateless encode/decode round trip possible for callers
// (like the archive service) that manage configurations themselves.
func EncodeContainerWith(data []byte, choice Choice) (*EncodeResult, error) {
	s := getScratch()
	enc, _, err := encodeChunk(nil, data, choice, s)
	scratchPool.Put(s)
	if err != nil {
		return nil, err
	}
	var actual float64
	if len(data) > 0 {
		actual = float64(len(enc)-len(data)) / float64(len(data))
	}
	return &EncodeResult{Encoded: enc, Choice: choice, ActualOverhead: actual}, nil
}

// DecodeResult carries a decode's outputs.
type DecodeResult struct {
	Data   []byte
	Config Config
	Report ecc.Report
}

// Decode verifies and repairs an encoded container (arc_decode). A
// non-nil error means damage beyond the code's correction ability was
// detected; Data still carries the best-effort payload in that case.
func (e *Engine) Decode(encoded []byte) (*DecodeResult, error) {
	return DecodeContainer(encoded, e.maxThreads)
}

// DecodeContainer decodes without an engine (the container is fully
// self-describing); workers bounds the parallelism.
func DecodeContainer(encoded []byte, workers int) (*DecodeResult, error) {
	h, err := unmarshalHeader(encoded)
	if err != nil {
		return nil, err
	}
	payload := encoded[ContainerOverheadBytes:]
	if len(payload) < h.EncLen {
		return nil, fmt.Errorf("%w: payload truncated (%d < %d)", ErrContainer, len(payload), h.EncLen)
	}
	if extra := len(payload) - h.EncLen; extra > 0 {
		// Refusing beats silently dropping the tail: trailing bytes
		// mean a multi-chunk stream (use the streaming reader) or a
		// corrupted length field.
		return nil, fmt.Errorf("%w: %d trailing bytes after the container (multi-chunk stream? use the stream reader)", ErrContainer, extra)
	}
	s := getScratch()
	data, rep, err := decodeChunk(nil, h, payload, workers, s)
	scratchPool.Put(s)
	if err != nil && !errors.Is(err, ecc.ErrUncorrectable) {
		return nil, err
	}
	return &DecodeResult{Data: data, Config: h.config(), Report: rep}, err
}

// Save persists the training table immediately (arc_save).
func (e *Engine) Save() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if err := e.trainer.SaveCache(e.table); err != nil {
		return err
	}
	e.dirty = false
	return nil
}

// Close saves the cache and releases the engine (arc_close). Further
// use returns ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	var err error
	if e.dirty {
		err = e.trainer.SaveCache(e.table)
	}
	e.closed = true
	return err
}
