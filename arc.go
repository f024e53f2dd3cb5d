// Package arc is ARC — Automated Resiliency for Compression — a Go
// implementation of the system described in "ARC: An Automated
// Approach to Resiliency for Lossy Compressed Data via Error
// Correcting Codes" (Fulp, Poulos, Underwood, Calhoun; HPDC 2021).
//
// A single soft error renders lossy-compressed data unusable. ARC
// protects any byte stream (lossy compressed or otherwise) with an
// automatically chosen error-correcting code, under user constraints
// on storage, throughput, and resiliency:
//
//	a, err := arc.Init(arc.AnyThreads)
//	if err != nil { ... }
//	defer a.Close()
//
//	enc, err := a.Encode(data, arc.AnyMem, arc.AnyBW, arc.AnyECC)
//	...
//	dec, err := a.Decode(enc.Encoded)
//
// Those four lines are the paper's Algorithm 1. Encode picks among
// single-bit even parity, Hamming, SEC-DED, and Reed-Solomon
// configurations using a cached throughput model of this machine,
// measured point by point as requests need it; Decode verifies, repairs
// what the chosen code can repair, and returns an error for damage
// beyond it.
//
// The ARC Engine functions of the paper's Table 1 (direct ECC
// encode/decode and the constraint optimizers) are exposed in this
// package as ParityEncode/ParityDecode, HammingEncode/HammingDecode,
// SecdedEncode/SecdedDecode, ReedSolomonEncode/ReedSolomonDecode,
// MemoryOptimizer, ThroughputOptimizer, and JointOptimizer.
package arc

import (
	"repro/internal/core"
	"repro/internal/ecc"
)

// Constraint sentinels mirroring the paper's flags.
const (
	// AnyThreads (ARC_ANY_THREADS) removes the thread cap.
	AnyThreads = core.AnyThreads
	// AnyMem (ARC_ANY_MEM / ARC_ANY_SIZE) removes the storage budget.
	AnyMem = core.AnyMem
	// AnyBW (ARC_ANY_BW) removes the throughput lower bound.
	AnyBW = core.AnyBW
)

// ECC method flags (ARC_PARITY, ARC_HAMMING, ARC_SECDED, ARC_RS).
const (
	Parity      = ecc.MethodParity
	Hamming     = ecc.MethodHamming
	SECDED      = ecc.MethodSECDED
	ReedSolomon = ecc.MethodReedSolomon
)

// Error-response flags (ARC_DET_SPARSE, ARC_COR_SPARSE, ARC_COR_BURST).
const (
	DetSparse = ecc.DetectSparse
	CorSparse = ecc.CorrectSparse
	CorBurst  = ecc.CorrectBurst
)

// Resiliency is the resiliency constraint passed to Encode. The zero
// value (AnyECC) admits every method.
type Resiliency = core.Resiliency

// AnyECC (ARC_ANY_ECC) is the unrestricted resiliency constraint.
var AnyECC = core.AnyECC

// WithMethods restricts ARC to the given ECC methods.
func WithMethods(ms ...ecc.Method) Resiliency { return Resiliency{Methods: ms} }

// WithCaps restricts ARC to methods having every given capability.
func WithCaps(c ecc.Capability) Resiliency { return Resiliency{Caps: c} }

// WithErrorsPerMB restricts ARC to methods able to correct the given
// expected rate of uniformly distributed soft errors per MB.
func WithErrorsPerMB(rate float64) Resiliency { return Resiliency{ErrorsPerMB: rate} }

// ARC is an initialized engine (the handle arc_init returns).
type ARC struct {
	eng *core.Engine
}

// Options tunes Init beyond the paper's single maxThreads argument.
type Options struct {
	// CacheDir overrides where training results are cached
	// ("" = the platform cache dir; "-" disables persistence).
	CacheDir string
	// TrainSampleBytes sizes the training buffer (0 = the default
	// chunk size, 4 MiB).
	TrainSampleBytes int
}

// Init initializes ARC with a maximum thread count (arc_init). It loads
// the cached throughput model and measures nothing: a (configuration,
// threads) point is measured the first time a request's decision needs
// it, and Save and Close persist what was measured. Table trains every
// configuration at thread counts up to maxThreads, as the paper's
// arc_init does.
func Init(maxThreads int) (*ARC, error) {
	return InitWithOptions(maxThreads, Options{})
}

// InitWithOptions is Init with explicit cache/training controls.
func InitWithOptions(maxThreads int, opts Options) (*ARC, error) {
	eng, err := core.NewEngine(core.EngineOptions{
		MaxThreads:  maxThreads,
		CacheDir:    opts.CacheDir,
		SampleBytes: opts.TrainSampleBytes,
	})
	if err != nil {
		return nil, err
	}
	return &ARC{eng: eng}, nil
}

// EncodeResult re-exports the engine's encode output.
type EncodeResult = core.EncodeResult

// DecodeResult re-exports the engine's decode output.
type DecodeResult = core.DecodeResult

// Choice re-exports the optimizer's selection.
type Choice = core.Choice

// Encode protects data (arc_encode). mem is the storage-overhead
// budget as a fraction of len(data) (0.25 allows 25% growth; AnyMem
// lifts the bound). bw is the minimum encode throughput in MB/s (AnyBW
// lifts it). res is the resiliency constraint (AnyECC lifts it).
func (a *ARC) Encode(data []byte, mem, bw float64, res Resiliency) (*EncodeResult, error) {
	return a.eng.Encode(data, mem, bw, res)
}

// Decode verifies and repairs an encoded buffer (arc_decode). On
// detected-but-uncorrectable damage it returns both the best-effort
// data and a non-nil error wrapping ecc.ErrUncorrectable.
func (a *ARC) Decode(encoded []byte) (*DecodeResult, error) {
	return a.eng.Decode(encoded)
}

// Save writes the training cache immediately (arc_save).
func (a *ARC) Save() error { return a.eng.Save() }

// Close saves the training cache and releases the engine (arc_close).
func (a *ARC) Close() error { return a.eng.Close() }

// MaxThreads reports the engine's thread cap.
func (a *ARC) MaxThreads() int { return a.eng.MaxThreads() }

// TrainedPoints reports how many (configuration, threads) points this
// engine has measured so far (0 while the cache answers every request).
func (a *ARC) TrainedPoints() int { return a.eng.TrainedPoints() }

// Table completes the training and returns a snapshot of the
// throughput model.
func (a *ARC) Table() *core.TrainTable { return a.eng.Table() }

// MemoryOptimizer (arc_memory_optimizer) returns ARC's suggested
// configuration for a storage budget and resiliency constraint.
func (a *ARC) MemoryOptimizer(mem float64, res Resiliency) (Choice, error) {
	return a.eng.Optimizer().Memory(mem, res)
}

// ThroughputOptimizer (arc_throughput_optimizer) returns ARC's
// suggested configuration for a throughput bound and resiliency
// constraint.
func (a *ARC) ThroughputOptimizer(bw float64, res Resiliency) (Choice, error) {
	return a.eng.Optimizer().Throughput(bw, res)
}

// JointOptimizer (arc_joint_optimizer) optimizes under both bounds.
func (a *ARC) JointOptimizer(mem, bw float64, res Resiliency) (Choice, error) {
	return a.eng.Optimizer().Joint(mem, bw, res)
}

// Decode decodes a container without an engine: containers are fully
// self-describing. workers bounds the decode parallelism (AnyThreads
// = all CPUs).
func Decode(encoded []byte, workers int) (*DecodeResult, error) {
	return core.DecodeContainer(nil, encoded, workers)
}

// EncodeContainer encodes a container without an engine, using an
// explicit configuration choice — the paper's "the user can ignore
// these suggestions" escape hatch, and the stateless counterpart of
// Decode for callers (services, tooling) that pick configurations
// themselves and never need the trained optimizer.
func EncodeContainer(data []byte, c Choice) (*EncodeResult, error) {
	return core.EncodeContainerWith(nil, data, c)
}

// ContainerOverheadBytes is the per-container header cost of the chunk
// header version written (a version-1 header, decode-only, is 12 bytes
// shorter).
const ContainerOverheadBytes = core.ContainerOverheadBytes

// ILSECDED (ARC_IL_SECDED) is ARC's extension method: interleaved
// SEC-DED, correcting single bursts up to the interleave depth at
// SEC-DED's 12.5% storage cost.
const ILSECDED = ecc.MethodInterleavedSECDED
