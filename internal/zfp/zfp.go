// Package zfp implements a transform-based lossy compressor modeled on
// ZFP (Lindstrom, TVCG 2014), the second compressor in the paper's
// fault study.
//
// The pipeline mirrors ZFP's stages: values are gathered into 4^d
// blocks, aligned to a common block exponent (block floating point),
// converted to fixed-point integers, decorrelated with an exactly
// invertible integer wavelet lifting (a two-level S-transform per axis;
// ZFP proper uses its own non-orthogonal lift — the substitution keeps
// the exact-invertibility and energy-compaction properties the fault
// study depends on), mapped to negabinary-style unsigned magnitudes,
// and entropy coded one bit plane at a time with ZFP's group-testing
// scheme.
//
// Two modes are provided, matching the study:
//
//   - ModeAccuracy (ZFP-ACC): encodes bit planes down to the level the
//     absolute tolerance requires. Blocks are variable length, so a bit
//     flip desynchronizes every later block — the propagation behaviour
//     the paper measures.
//   - ModeRate (ZFP-Rate): every block gets exactly rate*4^d bits.
//     Blocks are fixed size and independent, so a flip corrupts at most
//     one block (<= 16 values in 2D) and decoding never fails — both
//     hallmark findings of the paper.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitio"
	"repro/internal/parallel"
	"repro/internal/safecast"
)

// Mode selects the compression mode.
type Mode uint8

const (
	// ModeAccuracy bounds the absolute error by Param.
	ModeAccuracy Mode = iota + 1
	// ModeRate spends exactly Param bits per value.
	ModeRate
	// ModePrecision keeps exactly Param bit planes per block (ZFP's
	// fixed-precision mode; variable-length blocks like ModeAccuracy).
	ModePrecision
)

func (m Mode) String() string {
	switch m {
	case ModeAccuracy:
		return "ZFP-ACC"
	case ModeRate:
		return "ZFP-Rate"
	case ModePrecision:
		return "ZFP-Prec"
	default:
		return fmt.Sprintf("ZFP-mode%d", uint8(m))
	}
}

// Options configures compression.
type Options struct {
	Mode Mode
	// Param is the absolute error tolerance (ModeAccuracy) or the rate
	// in bits per value (ModeRate).
	Param float64
	// Workers parallelizes ModeRate compression and decompression over
	// block ranges (0/1 = serial). Fixed-rate blocks are independent
	// and fixed-size, which is exactly what makes ZFP's OpenMP and
	// CUDA execution possible; the variable-length modes stay serial.
	Workers int

	// maxDecodePlanes caps how many bit planes a ModeRate decode
	// consumes per block (0 = all). Set via DecompressProgressive.
	maxDecodePlanes int
}

// ErrCorrupt reports an undecodable stream.
var ErrCorrupt = errors.New("zfp: corrupt stream")

const (
	magic   = "ZFG1"
	version = 1
	// fixedPointBits positions the block's largest magnitude near bit
	// 55, leaving headroom for transform range growth (the two-level
	// S-transform grows coefficients by at most 4x per axis, 2^6 total
	// in 3D).
	fixedPointBits = 55
	intPrec        = 64 // bit planes per coefficient
	expBits        = 11
	expBias        = 1023
	maxElements    = 1 << 27
	maxDim         = 1 << 28
	// accMargin is the safety margin (in bit planes) between the
	// truncation level and the tolerance, absorbing inverse-transform
	// error growth.
	accMargin = 2
)

// Compress compresses data laid out row-major with 1-3 dims.
func Compress(data []float64, dims []int, opts Options) ([]byte, error) {
	if err := checkDims(data, dims); err != nil {
		return nil, err
	}
	switch opts.Mode {
	case ModeAccuracy:
		if opts.Param <= 0 {
			return nil, fmt.Errorf("zfp: tolerance must be positive, got %g", opts.Param)
		}
	case ModeRate:
		if opts.Param <= 0 || opts.Param > 64 {
			return nil, fmt.Errorf("zfp: rate must be in (0, 64], got %g", opts.Param)
		}
		if floor := minRate(newBlocker(dims).blockSize); opts.Param < floor {
			return nil, fmt.Errorf("zfp: rate %g cannot hold a block header; need >= %.3f for %dD data",
				opts.Param, floor, len(dims))
		}
	case ModePrecision:
		if opts.Param < 1 || opts.Param > intPrec || opts.Param != math.Trunc(opts.Param) {
			return nil, fmt.Errorf("zfp: precision must be an integer in [1, %d], got %g", intPrec, opts.Param)
		}
	default:
		return nil, fmt.Errorf("zfp: unknown mode %d", opts.Mode)
	}

	bl := newBlocker(dims)
	p := newBlockParams(opts, bl.blockSize)
	// Header and payload share one buffer, sized once: exactly in rate
	// mode, and otherwise for a 6x ratio — the variable-length modes at
	// the study's bounds land between 7x and 14x — past which append
	// grows it.
	payload := len(data) * 8 / 6
	if p.rate {
		payload = (bl.numBlocks*p.budget + 7) / 8
	}
	out := make([]byte, 0, len(magic)+3+4*len(dims)+8+payload)
	out = append(out, magic...)
	out = append(out, version, byte(opts.Mode), safecast.U8(len(dims)))
	for _, d := range dims {
		out = binary.LittleEndian.AppendUint32(out, safecast.U32(d))
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(opts.Param))

	if p.rate && opts.Workers > 1 && bl.numBlocks > 1 {
		return encodeRateParallel(out, data, bl, opts), nil
	}
	w := bitio.NewWriter(out)
	s := getBlockScratch(bl.blockSize)
	for b := 0; b < bl.numBlocks; b++ {
		bl.gather(data, b, s.vals)
		encodeBlock(w, s, bl, &p)
	}
	putBlockScratch(s)
	return w.Bytes(), nil
}

// rateGroup returns the number of fixed-rate blocks whose combined bit
// length is byte-aligned, so parallel workers can own whole groups and
// their buffers concatenate without bit shifting.
func rateGroup(opts Options, size int) int {
	bb := blockBits(opts.Param, size)
	g := 8 / gcdInt(bb, 8)
	return g
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// encodeRateParallel compresses fixed-rate blocks with worker-owned
// byte-aligned groups and appends them to dst; the output is
// bit-identical to the serial path.
func encodeRateParallel(dst []byte, data []float64, bl *blocker, opts Options) []byte {
	p := newBlockParams(opts, bl.blockSize)
	group := rateGroup(opts, bl.blockSize)
	groups := (bl.numBlocks + group - 1) / group
	bufs := make([][]byte, groups)
	parallel.For(groups, opts.Workers, func(lo, hi int) {
		s := getBlockScratch(bl.blockSize)
		defer putBlockScratch(s)
		for g := lo; g < hi; g++ {
			var w bitio.Writer
			for b := g * group; b < (g+1)*group && b < bl.numBlocks; b++ {
				bl.gather(data, b, s.vals)
				encodeBlock(&w, s, bl, &p)
			}
			bufs[g] = w.Bytes()
		}
	})
	for _, b := range bufs {
		dst = append(dst, b...)
	}
	return dst
}

func checkDims(data []float64, dims []int) error {
	if len(dims) < 1 || len(dims) > 3 {
		return fmt.Errorf("zfp: want 1-3 dims, got %d", len(dims))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("zfp: non-positive dimension %d", d)
		}
		n *= d
	}
	if n != len(data) {
		return fmt.Errorf("zfp: dims product %d != len(data) %d", n, len(data))
	}
	return nil
}

// DecompressProgressive decodes a fixed-rate stream at reduced
// precision: at most maxPlanes bit planes per block are consumed, the
// rest skipped — ZFP's progressive-access property (a low-resolution
// preview without reading/decoding full precision). maxPlanes <= 0
// decodes everything; non-rate streams are rejected.
func DecompressProgressive(buf []byte, maxPlanes, workers int) ([]float64, []int, error) {
	out, dims, mode, err := decompress(buf, maxPlanes, workers)
	if err != nil {
		return nil, nil, err
	}
	if maxPlanes > 0 && mode != ModeRate {
		return nil, nil, fmt.Errorf("zfp: progressive decode requires a fixed-rate stream, got %s", mode)
	}
	return out, dims, nil
}

// Decompress reverses Compress.
func Decompress(buf []byte) ([]float64, []int, error) {
	out, dims, _, err := decompress(buf, 0, 0)
	return out, dims, err
}

func decompress(buf []byte, maxPlanes, workers int) ([]float64, []int, Mode, error) {
	if len(buf) < len(magic) || string(buf[:len(magic)]) != magic {
		return nil, nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := buf[len(magic):]
	if len(rest) < 3 {
		return nil, nil, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	ver, modeB, ndims := rest[0], rest[1], rest[2]
	rest = rest[3:]
	if ver != version {
		return nil, nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	mode := Mode(modeB)
	if mode != ModeAccuracy && mode != ModeRate && mode != ModePrecision {
		return nil, nil, 0, fmt.Errorf("%w: bad mode %d", ErrCorrupt, modeB)
	}
	if ndims < 1 || ndims > 3 {
		return nil, nil, 0, fmt.Errorf("%w: bad ndims %d", ErrCorrupt, ndims)
	}
	dims := make([]int, ndims)
	n := 1
	for i := range dims {
		if len(rest) < 4 {
			return nil, nil, 0, fmt.Errorf("%w: truncated dims", ErrCorrupt)
		}
		d := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if d == 0 || d > maxDim {
			return nil, nil, 0, fmt.Errorf("%w: bad dimension %d", ErrCorrupt, d)
		}
		dims[i] = int(d)
		n *= int(d)
		if n > maxElements {
			return nil, nil, 0, fmt.Errorf("%w: element count overflows cap", ErrCorrupt)
		}
	}
	if len(rest) < 8 {
		return nil, nil, 0, fmt.Errorf("%w: truncated param", ErrCorrupt)
	}
	paramBits := binary.LittleEndian.Uint64(rest)
	payload := rest[8:]
	param := math.Float64frombits(paramBits)
	opts := Options{Mode: mode, Param: param, Workers: workers, maxDecodePlanes: maxPlanes}
	switch mode {
	case ModeAccuracy:
		if !(param > 0) || math.IsInf(param, 0) {
			return nil, nil, 0, fmt.Errorf("%w: bad tolerance", ErrCorrupt)
		}
	case ModeRate:
		if !(param > 0) || param > 64 {
			return nil, nil, 0, fmt.Errorf("%w: bad rate", ErrCorrupt)
		}
	case ModePrecision:
		if param < 1 || param > intPrec {
			return nil, nil, 0, fmt.Errorf("%w: bad precision", ErrCorrupt)
		}
	}

	bl := newBlocker(dims)
	p := newBlockParams(opts, bl.blockSize)
	// Every block consumes at least one bit (the zero-block flag), so a
	// payload shorter than numBlocks bits cannot be a valid stream.
	// Rejecting it before sizing the output keeps allocations
	// proportional to the input instead of to header-claimed dims.
	if bl.numBlocks > 8*len(payload) {
		return nil, nil, 0, fmt.Errorf("%w: %d blocks cannot fit in %d payload bytes", ErrCorrupt, bl.numBlocks, len(payload))
	}
	out := make([]float64, n)
	if p.rate && opts.Workers > 1 && bl.numBlocks > 1 {
		if err := decodeRateParallel(payload, out, bl, opts); err != nil {
			return nil, nil, 0, err
		}
		return out, dims, mode, nil
	}
	br := bitio.NewReader(payload)
	s := getBlockScratch(bl.blockSize)
	defer putBlockScratch(s)
	for b := 0; b < bl.numBlocks; b++ {
		if err := decodeBlock(br, s, bl, &p); err != nil {
			return nil, nil, 0, err
		}
		bl.scatter(out, b, s.vals)
	}
	return out, dims, mode, nil
}

// decodeRateParallel is the random-access decode path: each worker
// seeks directly to its group's byte offset.
func decodeRateParallel(payload []byte, out []float64, bl *blocker, opts Options) error {
	p := newBlockParams(opts, bl.blockSize)
	group := rateGroup(opts, bl.blockSize)
	groups := (bl.numBlocks + group - 1) / group
	groupBytes := group * p.budget / 8
	return parallel.ForErr(groups, opts.Workers, func(lo, hi int) error {
		s := getBlockScratch(bl.blockSize)
		defer putBlockScratch(s)
		for g := lo; g < hi; g++ {
			off := g * groupBytes
			if off > len(payload) {
				return fmt.Errorf("%w: payload ends before group %d", ErrCorrupt, g)
			}
			br := bitio.NewReader(payload[off:])
			for b := g * group; b < (g+1)*group && b < bl.numBlocks; b++ {
				if err := decodeBlock(br, s, bl, &p); err != nil {
					return err
				}
				bl.scatter(out, b, s.vals)
			}
		}
		return nil
	})
}
