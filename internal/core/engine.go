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

// Engine is the ARC engine: a trained, constraint-driven encoder and
// decoder for protecting byte streams. Construct with NewEngine (which
// runs or loads the training phase, mirroring arc_init) and release
// with Close (arc_close).
type Engine struct {
	mu         sync.Mutex
	trainer    *Trainer
	table      *TrainTable
	maxThreads int
	trained    int // points measured at init
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
	// SampleBytes sizes the training buffer (0 = 4 MiB default).
	SampleBytes int
}

// NewEngine initializes ARC: it loads any cached training data for
// this machine and measures whatever configurations are missing, as
// arc_init does.
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
	table := tr.LoadCache()
	table, measured, err := tr.Train(table, maxThreads)
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}
	e := &Engine{trainer: tr, table: table, maxThreads: maxThreads, trained: measured, dirty: measured > 0}
	if err := tr.SaveCache(table); err == nil {
		e.dirty = false
	}
	return e, nil
}

// MaxThreads returns the engine's thread cap.
func (e *Engine) MaxThreads() int { return e.maxThreads }

// TrainedPoints returns how many (config, threads) points init had to
// measure (0 when the cache was complete).
func (e *Engine) TrainedPoints() int { return e.trained }

// Table exposes the trained throughput table (read-only by convention).
func (e *Engine) Table() *TrainTable { return e.table }

// Optimizer returns a constraint optimizer over the trained table.
func (e *Engine) Optimizer() *Optimizer {
	return &Optimizer{Table: e.table, MaxThreads: e.maxThreads}
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
