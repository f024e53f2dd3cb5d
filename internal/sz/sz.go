// Package sz implements a prediction-based, error-bounded lossy
// compressor modeled on SZ (Di & Cappello, IPDPS'16; Liang et al., Big
// Data'18), the first of the paper's two compressors under study.
//
// The pipeline mirrors SZ's three stages:
//
//  1. Lorenzo prediction of each value from previously *reconstructed*
//     neighbors (1D/2D/3D stencils), so the bound holds end to end.
//  2. Linear-scale quantization of the prediction residual into integer
//     codes; residuals outside the quantizer range are stored verbatim
//     ("unpredictable" values).
//  3. Entropy coding of the integer codes with a canonical Huffman
//     coder, followed by a DEFLATE pass standing in for SZ's ZStd
//     stage. DEFLATE is used raw (no checksum wrapper) because SZ's
//     ZStd usage does not checksum content either — bit flips must be
//     able to slip through to reproduce the paper's silent-corruption
//     behaviour.
//
// Three error-bounding modes are provided, matching the study: ABS
// (uniform absolute bound), PWREL (point-wise relative bound via a
// log-domain transform), and PSNR (a target peak signal-to-noise
// ratio converted to an absolute bound from the data range).
package sz

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/safecast"
)

// Mode selects the error-bounding mode.
type Mode uint8

const (
	// ModeABS bounds the absolute error of every value by ErrorBound.
	ModeABS Mode = iota + 1
	// ModePWREL bounds each value's relative error by ErrorBound.
	ModePWREL
	// ModePSNR compresses so the decompressed data retains at least a
	// target PSNR (ErrorBound is the PSNR in dB).
	ModePSNR
)

func (m Mode) String() string {
	switch m {
	case ModeABS:
		return "SZ-ABS"
	case ModePWREL:
		return "SZ-PWREL"
	case ModePSNR:
		return "SZ-PSNR"
	default:
		return fmt.Sprintf("SZ-mode%d", uint8(m))
	}
}

// Options configures compression.
type Options struct {
	Mode Mode
	// ErrorBound is interpreted per Mode: absolute bound (ABS),
	// relative bound (PWREL), or target PSNR in dB (PSNR).
	ErrorBound float64
	// Regression enables SZ 2.x's block-wise linear-regression
	// predictor, selected per 6^d block against Lorenzo (2D/3D only;
	// 1D always uses Lorenzo).
	Regression bool
}

// quantRadius is the half-width of the quantization code alphabet:
// codes lie in (-quantRadius, +quantRadius), symbol 0 marks an
// unpredictable value (SZ's default 65536-interval quantizer).
const quantRadius = 32768

// flagRegression marks streams produced with the mixed
// regression/Lorenzo predictor.
const flagRegression = 0x01

const (
	magic   = "SZG1"
	version = 2
	// maxElements caps metadata-driven allocations during decompression
	// so corrupted headers lead to errors (or slow trials the fault
	// harness times out) instead of machine-wide OOM.
	maxElements = 1 << 27
	maxDim      = 1 << 28
)

// ErrCorrupt reports an undecodable stream — the "Compressor
// Exception" outcome of the paper's fault study.
var ErrCorrupt = errors.New("sz: corrupt stream")

// zeroFloor is the magnitude below which PWREL mode treats a value as
// exactly zero (log-domain transform cannot represent zero).
const zeroFloor = 1e-300

// wrapCorrupt formats an ErrCorrupt-wrapped error.
func wrapCorrupt(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrCorrupt}, args...)...)
}

// Compress compresses data laid out in row-major order with the given
// dimensions (1 to 3 dims; product must equal len(data)).
func Compress(data []float64, dims []int, opts Options) ([]byte, error) {
	if err := checkDims(data, dims); err != nil {
		return nil, err
	}
	if opts.ErrorBound <= 0 {
		return nil, fmt.Errorf("sz: error bound must be positive, got %g", opts.ErrorBound)
	}
	useReg := opts.Regression && len(dims) >= 2
	switch opts.Mode {
	case ModeABS:
		return compressABS(data, dims, opts.ErrorBound, ModeABS, opts.ErrorBound, useReg)
	case ModePSNR:
		lo, hi := valueRange(data)
		rng := hi - lo
		if rng == 0 {
			rng = 1 // constant field: any bound retains infinite PSNR
		}
		// PSNR = 20*log10(range/RMSE); uniform quantization error in
		// [-eb, eb] has RMSE eb/sqrt(3), so target eb accordingly.
		eb := rng * math.Pow(10, -opts.ErrorBound/20) * math.Sqrt(3)
		return compressABS(data, dims, eb, ModePSNR, opts.ErrorBound, useReg)
	case ModePWREL:
		return compressPWREL(data, dims, opts.ErrorBound, useReg)
	default:
		return nil, fmt.Errorf("sz: unknown mode %d", opts.Mode)
	}
}

func checkDims(data []float64, dims []int) error {
	if len(dims) < 1 || len(dims) > 3 {
		return fmt.Errorf("sz: want 1-3 dims, got %d", len(dims))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("sz: non-positive dimension %d", d)
		}
		n *= d
	}
	if n != len(data) {
		return fmt.Errorf("sz: dims product %d != len(data) %d", n, len(data))
	}
	return nil
}

func valueRange(data []float64) (lo, hi float64) {
	if len(data) == 0 {
		return 0, 0
	}
	lo, hi = data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// quantizeRef is the scalar reference implementation of the
// prediction + quantization stage: one predictor method call (with its
// per-element index division) per value. Retained for differential
// tests and as the benchmark baseline of the batched kernels in
// quant_fast.go, which must reproduce it bit for bit.
func quantizeRef(data []float64, dims []int, eb float64) (syms []int32, unpred []float64) {
	n := len(data)
	syms = make([]int32, n)
	recon := make([]float64, n)
	pred := newPredictor(dims, recon)
	twoEB := 2 * eb
	for i := 0; i < n; i++ {
		p := pred.predict(i)
		diff := data[i] - p
		code := math.Round(diff / twoEB)
		if math.Abs(code) < quantRadius-1 && !math.IsNaN(code) {
			r := p + code*twoEB
			// Guard against floating-point rounding pushing the
			// reconstruction out of bounds.
			if math.Abs(r-data[i]) <= eb {
				syms[i] = int32(code) + quantRadius
				recon[i] = r
				continue
			}
		}
		syms[i] = 0
		unpred = append(unpred, data[i])
		recon[i] = data[i]
	}
	return syms, unpred
}

// dequantizeRef is the scalar reference implementation of dequantize,
// retained for differential tests and benchmarks.
func dequantizeRef(syms []int32, dims []int, eb float64, unpred []float64) ([]float64, error) {
	n := len(syms)
	recon := make([]float64, n)
	pred := newPredictor(dims, recon)
	twoEB := 2 * eb
	ui := 0
	for i := 0; i < n; i++ {
		if syms[i] == 0 {
			if ui >= len(unpred) {
				return nil, fmt.Errorf("%w: unpredictable pool exhausted", ErrCorrupt)
			}
			recon[i] = unpred[ui]
			ui++
			continue
		}
		code := float64(syms[i] - quantRadius)
		recon[i] = pred.predict(i) + code*twoEB
	}
	return recon, nil
}

// predictor evaluates the Lorenzo stencil over the reconstruction
// buffer for 1, 2, or 3 dimensions.
type predictor struct {
	dims  []int
	recon []float64
	// strides for index arithmetic
	sy, sz int
}

func newPredictor(dims []int, recon []float64) *predictor {
	p := &predictor{dims: dims, recon: recon}
	switch len(dims) {
	case 2:
		p.sy = dims[1] // row-major [d0][d1]: stride of dim0 steps
	case 3:
		p.sy = dims[2]
		p.sz = dims[1] * dims[2]
	}
	return p
}

func (p *predictor) predict(i int) float64 {
	r := p.recon
	switch len(p.dims) {
	case 1:
		if i == 0 {
			return 0
		}
		return r[i-1]
	case 2:
		d1 := p.dims[1]
		x := i / d1
		y := i % d1
		var a, b, c float64 // left, up, up-left
		if y > 0 {
			a = r[i-1]
		}
		if x > 0 {
			b = r[i-d1]
		}
		if x > 0 && y > 0 {
			c = r[i-d1-1]
		}
		return a + b - c
	default: // 3D
		d1, d2 := p.dims[1], p.dims[2]
		z := i / (d1 * d2)
		rem := i % (d1 * d2)
		y := rem / d2
		x := rem % d2
		get := func(dz, dy, dx int) float64 {
			if z-dz < 0 || y-dy < 0 || x-dx < 0 {
				return 0
			}
			return r[i-dz*d1*d2-dy*d2-dx]
		}
		return get(0, 0, 1) + get(0, 1, 0) + get(1, 0, 0) -
			get(0, 1, 1) - get(1, 0, 1) - get(1, 1, 0) +
			get(1, 1, 1)
	}
}

// compressABS implements the core pipeline for an absolute bound; the
// PSNR mode reuses it with a derived bound.
func compressABS(data []float64, dims []int, eb float64, mode Mode, param float64, useReg bool) ([]byte, error) {
	if useReg {
		mr := quantizeMixed(data, dims, eb)
		return assemble(mode, param, eb, dims, mr.syms, mr.unpred, nil, 0, mr)
	}
	syms, unpred := quantize(data, dims, eb)
	return assemble(mode, param, eb, dims, syms, unpred, nil, 0, nil)
}

// compressPWREL implements the point-wise relative mode via SZ's
// log-domain transform: bounding log2|v| absolutely by log2(1+rel)
// bounds the relative error of v by rel. Signs and exact zeros travel
// in a side stream of 2-bit flags.
func compressPWREL(data []float64, dims []int, rel float64, useReg bool) ([]byte, error) {
	n := len(data)
	logs := make([]float64, n)
	flags := make([]byte, n) // 0: positive, 1: negative, 2: zero
	minLog := math.Inf(1)
	for _, v := range data {
		if a := math.Abs(v); a > zeroFloor {
			if l := math.Log2(a); l < minLog {
				minLog = l
			}
		}
	}
	if math.IsInf(minLog, 1) {
		minLog = 0 // all zeros
	}
	for i, v := range data {
		a := math.Abs(v)
		switch {
		case a <= zeroFloor:
			flags[i] = 2
			logs[i] = minLog // benign filler keeps the predictor smooth
		case v < 0:
			flags[i] = 1
			logs[i] = math.Log2(a)
		default:
			logs[i] = math.Log2(a)
		}
	}
	eb := math.Log2(1 + rel)
	if useReg {
		mr := quantizeMixed(logs, dims, eb)
		return assemble(ModePWREL, rel, eb, dims, mr.syms, mr.unpred, flags, minLog, mr)
	}
	syms, unpred := quantize(logs, dims, eb)
	return assemble(ModePWREL, rel, eb, dims, syms, unpred, flags, minLog, nil)
}

// encScratch holds assemble's large reusable state: the symbol
// histogram with its four counting lanes and the Huffman codec whose
// tables are rebuilt in place via huffman.BuildInto. It circulates
// through encScratchPool; holders must not retain any view of it past
// Put.
type encScratch struct {
	freqs []int64
	lanes []uint32 // histLanes partial histograms, back to back
	codec huffman.Codec
}

var encScratchPool = sync.Pool{New: func() any { return new(encScratch) }}

// histLanes is the number of partial histograms count fills. SZ's
// symbols come in runs of the same value, and a run through one counter
// is a chain of store-to-load forwards, one increment per ~5 cycles;
// neighbours in separate lanes increment independently.
const histLanes = 4

// count fills es.freqs with the histogram of syms over the quantizer's
// alphabet. A symbol is a valid index by construction: quantOne emits 0
// or code+quantRadius with |code| < quantRadius-1.
func (es *encScratch) count(syms []int32) []int64 {
	const n = 2 * quantRadius
	if cap(es.freqs) < n {
		es.freqs = make([]int64, n)
		es.lanes = make([]uint32, histLanes*n)
	}
	clear(es.lanes)
	l0, l1, l2, l3 := es.lanes[:n], es.lanes[n:2*n], es.lanes[2*n:3*n], es.lanes[3*n:4*n]
	i := 0
	for ; i+histLanes <= len(syms); i += histLanes {
		q := syms[i : i+histLanes : i+histLanes]
		l0[q[0]]++
		l1[q[1]]++
		l2[q[2]]++
		l3[q[3]]++
	}
	for ; i < len(syms); i++ {
		l0[syms[i]]++
	}
	// A lane holds at most len(syms) <= maxElements (1<<27) per counter.
	freqs := es.freqs[:n]
	for s := range freqs {
		freqs[s] = int64(l0[s]) + int64(l1[s]) + int64(l2[s]) + int64(l3[s])
	}
	return freqs
}

// flateWriterPool recycles DEFLATE compressors across assemble calls;
// each use rebinds the writer to its destination with Reset. Writers
// are detached from the caller's buffer (Reset to io.Discard) before
// going back so the pool never pins output buffers.
var flateWriterPool = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		// flate.NewWriter fails only for invalid levels; BestSpeed is valid.
		panic(err)
	}
	return w
}}

// assemble serializes all streams into the final compressed buffer:
// header, optional regression sections, Huffman table + codes,
// unpredictable values, optional PWREL flag stream — then the DEFLATE
// lossless pass over the whole payload. mr is non-nil when the mixed
// regression/Lorenzo predictor produced the streams.
func assemble(mode Mode, param, eb float64, dims []int, syms []int32, unpred []float64, flags []byte, minLog float64, mr *mixedResult) ([]byte, error) {
	var payload bytes.Buffer
	payload.WriteString(magic)
	payload.WriteByte(version)
	payload.WriteByte(byte(mode))
	var streamFlags byte
	if mr != nil {
		streamFlags |= flagRegression
	}
	payload.WriteByte(streamFlags)
	payload.WriteByte(safecast.U8(len(dims)))
	for _, d := range dims {
		putU32(&payload, safecast.U32(d))
	}
	putU64(&payload, math.Float64bits(eb))
	putU64(&payload, math.Float64bits(param))
	putU64(&payload, math.Float64bits(minLog))
	putU32(&payload, safecast.U32(len(unpred)))
	if mr != nil {
		putU32(&payload, safecast.U32(len(mr.modes)))
		// Pack the per-block mode flags 64 at a time through the bit
		// writer's word path; the layout matches one WriteBit per flag.
		var mw bitio.Writer
		var acc uint64
		nAcc := 0
		for _, m := range mr.modes {
			acc <<= 1
			if m {
				acc |= 1
			}
			if nAcc++; nAcc == 64 {
				mw.WriteBits(acc, 64)
				acc, nAcc = 0, 0
			}
		}
		mw.WriteBits(acc, nAcc)
		payload.Write(mw.Bytes())
		putU32(&payload, safecast.U32(len(mr.qcoeffs)))
		for _, q := range mr.qcoeffs {
			putU32(&payload, safecast.Bits32(safecast.I32From64(q)))
		}
	}

	// Huffman stage over the symbol alphabet actually used. The
	// histogram and codec tables come from the scratch pool so repeated
	// compressions reuse their megabyte and a half of state.
	es := encScratchPool.Get().(*encScratch)
	defer encScratchPool.Put(es)
	var hw bitio.Writer
	if len(syms) > 0 {
		codec, err := huffman.BuildInto(&es.codec, es.count(syms))
		if err != nil {
			return nil, err
		}
		codec.WriteTable(&hw)
		codec.EncodeAll(&hw, syms)
	}
	hb := hw.Bytes()
	putU32(&payload, safecast.U32(len(hb)))
	payload.Write(hb)
	for _, u := range unpred {
		putU64(&payload, math.Float64bits(u))
	}
	if mode == ModePWREL {
		var fw bitio.Writer
		for _, f := range flags {
			fw.WriteBits(uint64(f), 2)
		}
		payload.Write(fw.Bytes())
	}

	// Final lossless pass (ZStd stand-in). On write/close errors the
	// writer is abandoned to the GC rather than pooled in an unknown
	// state (bytes.Buffer writes cannot fail, so this never happens in
	// practice).
	var out bytes.Buffer
	out.WriteString(magic)
	putU64(&out, safecast.U64(payload.Len()))
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(&out)
	if _, err := fw.Write(payload.Bytes()); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	fw.Reset(io.Discard)
	flateWriterPool.Put(fw)
	return out.Bytes(), nil
}

// putU32 and putU64 append a little-endian value to a buffer (whose
// writes cannot fail) without binary.Write's reflection and boxing per
// value: a field with many unpredictable values or regression
// coefficients writes one of these for each.
func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

// Decompress reverses Compress, returning the reconstructed values and
// dimensions. Any inconsistency in the stream yields an error wrapping
// ErrCorrupt; wildly corrupted metadata can instead make the call slow
// (bounded by maxElements), which the fault-injection harness
// classifies as a timeout, as the paper observed with real SZ.
func Decompress(buf []byte) ([]float64, []int, error) {
	if len(buf) < len(magic)+8 {
		return nil, nil, fmt.Errorf("%w: short buffer", ErrCorrupt)
	}
	if string(buf[:len(magic)]) != magic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	payloadLen := binary.LittleEndian.Uint64(buf[len(magic):])
	comp := buf[len(magic)+8:]
	if payloadLen > uint64(maxElements)*10+(1<<20) {
		return nil, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, payloadLen)
	}
	if payloadLen > uint64(len(comp))*maxDeflateRatio+64 {
		return nil, nil, fmt.Errorf("%w: payload length %d exceeds what %d compressed bytes can inflate to", ErrCorrupt, payloadLen, len(comp))
	}
	payload, err := inflate(comp, int(payloadLen)) //arcvet:ignore mathbits payloadLen <= maxElements*10+1MiB < 2^31, checked above
	if err != nil {
		return nil, nil, fmt.Errorf("%w: lossless stage: %v", ErrCorrupt, err)
	}
	return parsePayload(payload)
}

// maxDeflateRatio bounds DEFLATE's expansion: no deflate stream
// inflates to more than ~1032x its compressed size, so a header
// claiming more is corrupt. Rejecting it up front keeps decoder
// allocations proportional to the input actually supplied.
const maxDeflateRatio = 1032

// inflater bundles a reusable DEFLATE reader with its source adapter.
// flate.NewReader allocates roughly 45 KiB of window and Huffman state
// per call; resetting one instance via flate.Resetter amortizes that
// across decompressions.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // satisfies flate.Resetter by construction
}

var inflaterPool = sync.Pool{New: func() any {
	inf := new(inflater)
	inf.fr = flate.NewReader(&inf.src)
	return inf
}}

// inflate decompresses src, expecting exactly want bytes. The output
// buffer starts at what a stream of src's size plausibly holds (DEFLATE
// gains little on Huffman-coded symbols, so twice the compressed bytes
// covers every stream Compress writes in one allocation) and past that
// grows geometrically as bytes actually arrive instead of being
// pre-sized from the header, so a corrupted length field costs memory
// proportional to the bytes supplied and to what they really yield.
func inflate(src []byte, want int) ([]byte, error) {
	inf, ok := inflaterPool.Get().(*inflater)
	if !ok {
		// Unreachable (the pool's New returns *inflater); a zero value
		// is still fine — the Resetter check below sees a nil fr and
		// builds the reader.
		inf = new(inflater)
	}
	defer func() {
		// Detach the caller's buffer before pooling so the pool never
		// pins input streams.
		inf.src.Reset(nil)
		inflaterPool.Put(inf)
	}()
	inf.src.Reset(src)
	if rr, ok := inf.fr.(flate.Resetter); ok {
		if err := rr.Reset(&inf.src, nil); err != nil {
			return nil, err
		}
	} else {
		// Unreachable with the standard library (flate readers implement
		// Resetter), but a fresh reader keeps this path correct anyway.
		inf.fr = flate.NewReader(&inf.src)
	}
	fr := inf.fr
	buf := make([]byte, min(want, 2*len(src)+64<<10))
	read := 0
	for {
		if _, err := io.ReadFull(fr, buf[read:]); err != nil {
			return nil, err
		}
		read = len(buf)
		if read == want {
			return buf, nil
		}
		grown := make([]byte, min(read*2, want))
		copy(grown, buf)
		buf = grown
	}
}

// decScratch holds parsePayload's reusable state: the decode-side
// Huffman codec (ReadTableMaxInto rebuilds its tables in place) and the
// chunk of symbols between the Huffman stage and dequantize. It
// circulates through decScratchPool; it is self-contained (no view of
// the payload or of the output survives in it), so pooling it after an
// error is safe.
type decScratch struct {
	codec huffman.Codec
	chunk []int32
}

var decScratchPool = sync.Pool{New: func() any { return new(decScratch) }}

// symChunk is how many symbols the decoder keeps between the Huffman
// stage and dequantize: 256 KiB of them, so a chunk is still in the
// second-level cache when dequantize reads it, and the field's worth of
// symbols (4 bytes a value) is never allocated. A row longer than this
// gets a chunk of its own length.
const symChunk = 64 << 10

// symReader hands the symbol stream to dequantize in order, a row or a
// block at a time. Over a Huffman section it decodes a chunk ahead with
// DecodeAll; over symbols already in memory (the differential tests and
// kernel benchmarks) it only slices them.
type symReader struct {
	have []int32 // decoded and not yet handed out

	codec   *huffman.Codec // nil: have is all there is
	br      *bitio.Reader
	chunk   []int32 // storage have is a view of
	decoded int     // symbols DecodeAll has produced so far
	left    int     // symbols still to decode
}

// next returns the next n symbols of the stream. The slice is valid
// until the following call.
func (r *symReader) next(n int) ([]int32, error) {
	if len(r.have) < n {
		if err := r.fill(n); err != nil {
			return nil, err
		}
	}
	out := r.have[:n:n]
	r.have = r.have[n:]
	return out, nil
}

// fill moves the unread symbols to the front of the chunk and decodes
// behind them as many as fit, so that at least n are there.
func (r *symReader) fill(n int) error {
	if len(r.have)+r.left < n {
		// The caller asks for what the header promised, and parsePayload
		// sized the stream from the same header.
		return wrapCorrupt("symbol stream ends %d symbols early", n-len(r.have)-r.left)
	}
	if cap(r.chunk) < n {
		grown := make([]int32, max(n, min(symChunk, len(r.have)+r.left)))
		copy(grown, r.have)
		r.chunk = grown
	} else {
		copy(r.chunk[:cap(r.chunk)], r.have)
	}
	kept := len(r.have)
	more := min(cap(r.chunk)-kept, r.left)
	r.have = r.chunk[:kept+more]
	got, err := r.codec.DecodeAll(r.br, r.have[kept:])
	if err != nil {
		return fmt.Errorf("%w: symbol %d: %v", ErrCorrupt, r.decoded+got, err)
	}
	r.decoded += more
	r.left -= more
	return nil
}

func parsePayload(p []byte) ([]float64, []int, error) {
	rd := &byteReader{buf: p}
	if string(rd.take(len(magic))) != magic {
		return nil, nil, fmt.Errorf("%w: bad inner magic", ErrCorrupt)
	}
	if v := rd.u8(); v != version {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	mode := Mode(rd.u8())
	streamFlags := rd.u8()
	if streamFlags&^flagRegression != 0 {
		return nil, nil, fmt.Errorf("%w: unknown stream flags %#x", ErrCorrupt, streamFlags)
	}
	ndims := int(rd.u8())
	if rd.err != nil || ndims < 1 || ndims > 3 {
		return nil, nil, fmt.Errorf("%w: bad ndims", ErrCorrupt)
	}
	dims := make([]int, ndims)
	n := 1
	for i := range dims {
		d := int(rd.u32())
		if d <= 0 || d > maxDim {
			return nil, nil, fmt.Errorf("%w: bad dimension %d", ErrCorrupt, d)
		}
		dims[i] = d
		n *= d
		if n > maxElements {
			return nil, nil, fmt.Errorf("%w: element count overflows cap", ErrCorrupt)
		}
	}
	eb := math.Float64frombits(rd.u64())
	_ = math.Float64frombits(rd.u64()) // original user parameter, informational
	minLog := math.Float64frombits(rd.u64())
	nUnpred := int(rd.u32())
	var modes []bool
	var qcoeffs []int64
	if streamFlags&flagRegression != 0 {
		nBlocks := int(rd.u32())
		wantBlocks := newRegGrid(dims).blocks
		if rd.err != nil || nBlocks != wantBlocks {
			return nil, nil, fmt.Errorf("%w: block count %d != %d", ErrCorrupt, nBlocks, wantBlocks)
		}
		mb := rd.take((nBlocks + 7) / 8)
		if rd.err != nil {
			return nil, nil, fmt.Errorf("%w: truncated mode bits", ErrCorrupt)
		}
		br := bitio.NewReader(mb)
		modes = make([]bool, nBlocks)
		nReg := 0
		for i := range modes {
			b, err := br.ReadBit()
			if err != nil {
				return nil, nil, fmt.Errorf("%w: mode bits", ErrCorrupt)
			}
			modes[i] = b == 1
			if modes[i] {
				nReg++
			}
		}
		nc := int(rd.u32())
		if rd.err != nil || nc != nReg*(ndims+1) {
			return nil, nil, fmt.Errorf("%w: coefficient count %d", ErrCorrupt, nc)
		}
		qcoeffs = make([]int64, nc)
		for i := range qcoeffs {
			qcoeffs[i] = int64(safecast.SignBits32(rd.u32()))
		}
	}
	huffLen := int(rd.u32())
	if rd.err != nil {
		return nil, nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if nUnpred < 0 || nUnpred > n {
		return nil, nil, fmt.Errorf("%w: unpredictable count %d out of range", ErrCorrupt, nUnpred)
	}
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, nil, fmt.Errorf("%w: invalid error bound", ErrCorrupt)
	}
	hb := rd.take(huffLen)
	if rd.err != nil {
		return nil, nil, fmt.Errorf("%w: truncated huffman section", ErrCorrupt)
	}
	// Every decoded symbol costs at least one bit, so the Huffman
	// section must hold at least n bits; a shorter section means the
	// count metadata is corrupt. Checking before sizing the symbol and
	// reconstruction buffers keeps allocations proportional to the
	// stream instead of to header-claimed dimensions.
	if n > 8*huffLen {
		return nil, nil, wrapCorrupt("element count %d exceeds huffman section capacity (%d bytes)", n, huffLen)
	}
	unpred := make([]float64, nUnpred)
	for i := range unpred {
		unpred[i] = math.Float64frombits(rd.u64())
	}
	if rd.err != nil {
		return nil, nil, fmt.Errorf("%w: truncated unpredictables", ErrCorrupt)
	}
	// Symbols are decoded a chunk ahead of dequantize, which asks for
	// them a row or a block at a time: a Huffman error surfaces from
	// whichever request reaches it, with the index of the symbol.
	ds, ok := decScratchPool.Get().(*decScratch)
	if !ok {
		ds = new(decScratch) // unreachable: the pool's New returns *decScratch
	}
	defer decScratchPool.Put(ds)
	br := bitio.NewReader(hb)
	codec, err := huffman.ReadTableMaxInto(&ds.codec, br, 2*quantRadius)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Every decoded symbol is below NumSymbols, the quantizer's alphabet.
	if codec.NumSymbols != 2*quantRadius {
		return nil, nil, fmt.Errorf("%w: alphabet size %d", ErrCorrupt, codec.NumSymbols)
	}
	syms := &symReader{codec: codec, br: br, chunk: ds.chunk, left: n}
	defer func() { ds.chunk = syms.chunk }()
	var recon []float64
	if streamFlags&flagRegression != 0 {
		recon, err = dequantizeMixed(syms, dims, eb, unpred, modes, qcoeffs)
	} else {
		recon, err = dequantize(syms, dims, eb, unpred)
	}
	if err != nil {
		return nil, nil, err
	}
	if mode == ModePWREL {
		flagBytes := rd.take((2*n + 7) / 8)
		if rd.err != nil {
			return nil, nil, fmt.Errorf("%w: truncated flag stream", ErrCorrupt)
		}
		fr := bitio.NewReader(flagBytes)
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			f, err := fr.ReadBits(2)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: flag stream: %v", ErrCorrupt, err)
			}
			switch f {
			case 2:
				out[i] = 0
			case 1:
				out[i] = -math.Exp2(recon[i])
			default:
				out[i] = math.Exp2(recon[i])
			}
		}
		_ = minLog
		return out, dims, nil
	}
	return recon, dims, nil
}

// byteReader is a bounds-checked little-endian reader that records the
// first failure rather than panicking, so corrupted streams surface as
// errors.
type byteReader struct {
	buf []byte
	pos int
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *byteReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
