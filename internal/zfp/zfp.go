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
//
// No other mode exists, and the decoder refuses any other mode byte, so
// a flip of the header's mode byte cannot turn a Rate stream into one
// that decodes every block wrongly: it fails with ErrCorrupt instead of
// returning a silently wrong field.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitio"
	"repro/internal/safecast"
)

// Mode selects the compression mode.
type Mode uint8

const (
	// ModeAccuracy bounds the absolute error by Param.
	ModeAccuracy Mode = iota + 1
	// ModeRate spends exactly Param bits per value.
	ModeRate
)

func (m Mode) String() string {
	switch m {
	case ModeAccuracy:
		return "ZFP-ACC"
	case ModeRate:
		return "ZFP-Rate"
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
	default:
		return nil, fmt.Errorf("zfp: unknown mode %d", opts.Mode)
	}

	bl := newBlocker(dims)
	p := newBlockParams(opts, bl.blockSize)
	// Header and payload share one buffer, sized once: exactly in rate
	// mode, and otherwise for a 6x ratio — accuracy mode at the study's
	// bounds lands between 7x and 14x — past which append grows it.
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

	w := bitio.NewWriter(out)
	s := getBlockScratch(bl.blockSize)
	for b := 0; b < bl.numBlocks; b++ {
		bl.gather(data, b, s.vals)
		encodeBlock(w, s, bl, &p)
	}
	putBlockScratch(s)
	return w.Bytes(), nil
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

// Decompress reverses Compress. The values are written to dst, which
// must hold exactly the stream's element count (a stream of another
// size is refused as corrupt before anything is written); a nil dst
// allocates the output.
func Decompress(dst []float64, buf []byte) ([]float64, []int, error) {
	dims, opts, payload, err := readHeader(buf)
	if err != nil {
		return nil, nil, err
	}
	bl := newBlocker(dims)
	p := newBlockParams(opts, bl.blockSize)
	n := 1
	for _, d := range dims {
		n *= d
	}
	out := dst
	switch {
	case out == nil:
		out = make([]float64, n)
	case len(out) != n:
		return nil, nil, fmt.Errorf("%w: stream holds %d values, dst %d", ErrCorrupt, n, len(out))
	}
	br := bitio.NewReader(payload)
	s := getBlockScratch(bl.blockSize)
	defer putBlockScratch(s)
	for b := 0; b < bl.numBlocks; b++ {
		if err := decodeBlock(br, s, bl, &p); err != nil {
			return nil, nil, err
		}
		bl.scatter(out, b, s.vals)
	}
	return out, dims, nil
}

// Dims checks a stream's header as Decompress does before it sizes its
// output, and returns the dims the stream claims. A caller that decodes
// several streams into one output checks each with it first.
func Dims(buf []byte) ([]int, error) {
	dims, _, _, err := readHeader(buf)
	return dims, err
}

// readHeader reads and checks a stream's header, returning its dims,
// its options and the block payload behind it. The dims are bounded by
// the payload's bytes, so sizing an output by them costs memory in
// proportion to the input.
func readHeader(buf []byte) (dims []int, opts Options, payload []byte, err error) {
	bad := func(format string, args ...any) ([]int, Options, []byte, error) {
		return nil, Options{}, nil, fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	if len(buf) < len(magic) || string(buf[:len(magic)]) != magic {
		return bad("bad magic")
	}
	rest := buf[len(magic):]
	if len(rest) < 3 {
		return bad("truncated header")
	}
	ver, modeB, ndims := rest[0], rest[1], rest[2]
	rest = rest[3:]
	if ver != version {
		return bad("unsupported version %d", ver)
	}
	mode := Mode(modeB)
	if mode != ModeAccuracy && mode != ModeRate {
		return bad("bad mode %d", modeB)
	}
	if ndims < 1 || ndims > 3 {
		return bad("bad ndims %d", ndims)
	}
	dims = make([]int, ndims)
	n := 1
	for i := range dims {
		if len(rest) < 4 {
			return bad("truncated dims")
		}
		d := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if d == 0 || d > maxDim {
			return bad("bad dimension %d", d)
		}
		dims[i] = int(d)
		n *= int(d)
		if n > maxElements {
			return bad("element count overflows cap")
		}
	}
	if len(rest) < 8 {
		return bad("truncated param")
	}
	param := math.Float64frombits(binary.LittleEndian.Uint64(rest))
	payload = rest[8:]
	switch mode {
	case ModeAccuracy:
		if !(param > 0) || math.IsInf(param, 0) {
			return bad("bad tolerance")
		}
	case ModeRate:
		if !(param > 0) || param > 64 {
			return bad("bad rate")
		}
	}
	// Every block consumes at least one bit (the zero-block flag), so a
	// payload shorter than numBlocks bits cannot be a valid stream.
	// Rejecting it before sizing the output keeps allocations
	// proportional to the input instead of to header-claimed dims.
	blocks := 1
	for _, d := range dims {
		blocks *= (d + 3) / 4
	}
	if blocks > 8*len(payload) {
		return bad("%d blocks cannot fit in %d payload bytes", blocks, len(payload))
	}
	return dims, Options{Mode: mode, Param: param}, payload, nil
}
