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
}

// quantRadius is the half-width of the quantization code alphabet:
// codes lie in (-quantRadius, +quantRadius), symbol 0 marks an
// unpredictable value (SZ's default 65536-interval quantizer).
const quantRadius = 32768

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
	switch opts.Mode {
	case ModeABS:
		return compressABS(data, dims, opts.ErrorBound, ModeABS, opts.ErrorBound)
	case ModePSNR:
		lo, hi := valueRange(data)
		rng := hi - lo
		if rng == 0 {
			rng = 1 // constant field: any bound retains infinite PSNR
		}
		// PSNR = 20*log10(range/RMSE); uniform quantization error in
		// [-eb, eb] has RMSE eb/sqrt(3), so target eb accordingly.
		eb := rng * math.Pow(10, -opts.ErrorBound/20) * math.Sqrt(3)
		return compressABS(data, dims, eb, ModePSNR, opts.ErrorBound)
	case ModePWREL:
		return compressPWREL(data, dims, opts.ErrorBound)
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
			r := p + float64(code*twoEB)
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
		recon[i] = pred.predict(i) + float64(code*twoEB)
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
func compressABS(data []float64, dims []int, eb float64, mode Mode, param float64) ([]byte, error) {
	syms, unpred := quantize(data, dims, eb)
	return assemble(mode, param, eb, dims, syms, unpred, nil, 0)
}

// compressPWREL implements the point-wise relative mode via SZ's
// log-domain transform: bounding log2|v| absolutely by log2(1+rel)
// bounds the relative error of v by rel. Signs and exact zeros travel
// in a side stream of 2-bit flags.
func compressPWREL(data []float64, dims []int, rel float64) ([]byte, error) {
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
	syms, unpred := quantize(logs, dims, eb)
	return assemble(ModePWREL, rel, eb, dims, syms, unpred, flags, minLog)
}

// encScratch holds assemble's large reusable state: the symbol
// histogram's four counting lanes, the used symbols with their
// frequencies, and the Huffman codec whose tables are rebuilt in place
// via huffman.BuildUsed. It circulates through encScratchPool; holders
// must not retain any view of it past Put.
type encScratch struct {
	lanes []uint32 // histLanes partial histograms, back to back; all zero between calls
	used  []int32
	freqs []int64
	codec huffman.Codec
}

var encScratchPool = sync.Pool{New: func() any { return new(encScratch) }}

// histLanes is the number of partial histograms count fills. SZ's
// symbols come in runs of the same value, and a run through one counter
// is a chain of store-to-load forwards, one increment per ~5 cycles;
// neighbours in separate lanes increment independently.
const histLanes = 4

// count returns the symbols of syms in ascending order with how often
// each occurs. A symbol is a valid index by construction: quantOne
// emits 0 or code+quantRadius with |code| < quantRadius-1.
//
// The lanes are zero between calls, and count reads and clears only
// what syms touched: symbol 0 and a range around the others. The range
// comes from the histogram itself rather than from the counting loop:
// codes are residuals over twice the bound, centred on zero, so it
// grows from quantRadius outward, a symbol each side at a time, until
// its counters hold every symbol that is not 0. Symbol 0
// (unpredictable) never widens it. Tracking the least and greatest
// symbol in the counting loop instead cost more than the counting.
func (es *encScratch) count(syms []int32) (used []int32, freqs []int64) {
	const n = 2 * quantRadius
	if es.lanes == nil {
		es.lanes = make([]uint32, histLanes*n)
	}
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
	freq := func(s int) int64 { return int64(l0[s]) + int64(l1[s]) + int64(l2[s]) + int64(l3[s]) }
	used, freqs = es.used[:0], es.freqs[:0]
	take := func(s int) {
		if f := freq(s); f > 0 {
			used = append(used, int32(s)) //arcvet:ignore mathbits s < 2*quantRadius
			freqs = append(freqs, f)
		}
		l0[s], l1[s], l2[s], l3[s] = 0, 0, 0, 0
	}
	rest := int64(len(syms)) - freq(0) // symbols in the range still to find
	take(0)
	if rest > 0 {
		r := 0 // the range is [quantRadius-r, quantRadius+r]
		for rest -= freq(quantRadius); rest > 0 && r < quantRadius-1; {
			r++
			rest -= freq(quantRadius-r) + freq(quantRadius+r)
		}
		for s := quantRadius - r; s <= quantRadius+r; s++ {
			take(s)
		}
	}
	es.used, es.freqs = used, freqs
	return used, freqs
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
// header, Huffman table + codes, unpredictable values, optional PWREL
// flag stream — then the DEFLATE lossless pass over the whole payload.
// Once the code is built every section's size is known, so the payload
// is one buffer of exactly its size, and the Huffman stage writes into
// it in place.
func assemble(mode Mode, param, eb float64, dims []int, syms []int32, unpred []float64, flags []byte, minLog float64) ([]byte, error) {
	// Huffman stage over the symbol alphabet actually used. The
	// counting lanes and codec tables come from the scratch pool so
	// repeated compressions reuse their two megabytes of state.
	es := encScratchPool.Get().(*encScratch)
	defer encScratchPool.Put(es)
	var codec *huffman.Codec
	huffBits := 0
	if len(syms) > 0 {
		used, freqs := es.count(syms)
		c, err := huffman.BuildUsed(&es.codec, 2*quantRadius, used, freqs)
		if err != nil {
			return nil, err
		}
		codec, huffBits = c, c.TableBits()
		for i, s := range used {
			huffBits += int(freqs[i]) * c.Length(int(s))
		}
	}
	huffLen := (huffBits + 7) / 8
	size := len(magic) + 4 + 4*len(dims) + 3*8 + 4 + 4 + huffLen + 8*len(unpred)
	if mode == ModePWREL {
		size += (2*len(flags) + 7) / 8
	}
	p := make([]byte, 0, size)
	p = append(p, magic...)
	p = append(p, version, byte(mode), 0, safecast.U8(len(dims))) // stream flags: none are defined
	for _, d := range dims {
		p = binary.LittleEndian.AppendUint32(p, safecast.U32(d))
	}
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(eb))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(param))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(minLog))
	p = binary.LittleEndian.AppendUint32(p, safecast.U32(len(unpred)))
	p = binary.LittleEndian.AppendUint32(p, safecast.U32(huffLen))
	if codec != nil {
		hw := bitio.NewWriter(p)
		codec.WriteTable(hw)
		codec.EncodeAll(hw, syms)
		p = hw.Bytes()
	}
	for _, u := range unpred {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(u))
	}
	if mode == ModePWREL {
		fw := bitio.NewWriter(p)
		for _, f := range flags {
			fw.WriteBits(uint64(f), 2)
		}
		p = fw.Bytes()
	}
	if len(p) != size {
		panic(fmt.Sprintf("sz: payload of %d bytes, sized for %d", len(p), size))
	}

	// Final lossless pass (ZStd stand-in). The output is sized for
	// DEFLATE's worst case, stored blocks of at most 64 KiB with 5 bytes
	// of framing each, so it is allocated once. On write/close errors
	// the writer is abandoned to the GC rather than pooled in an unknown
	// state (bytes.Buffer writes cannot fail, so this never happens in
	// practice).
	out := bytes.NewBuffer(make([]byte, 0, len(magic)+8+size+size>>12+64))
	var payloadLen [8]byte
	binary.LittleEndian.PutUint64(payloadLen[:], safecast.U64(len(p)))
	out.WriteString(magic)
	out.Write(payloadLen[:])
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(out)
	if _, err := fw.Write(p); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	fw.Reset(io.Discard)
	flateWriterPool.Put(fw)
	return out.Bytes(), nil
}

// Decompress reverses Compress, returning the reconstructed values and
// dimensions. The values are written to dst, which must hold exactly
// the stream's element count (a stream of another size is refused as
// corrupt before anything is written); a nil dst allocates the output.
// Any inconsistency in the stream yields an error wrapping ErrCorrupt;
// wildly corrupted metadata can instead make the call slow (bounded by
// maxElements), which the fault-injection harness classifies as a
// timeout, as the paper observed with real SZ.
//
// Decompress is Inflate followed by DecodePayload.
func Decompress(dst []float64, buf []byte) ([]float64, []int, error) {
	payload, _, err := Inflate(buf)
	if err != nil {
		return nil, nil, err
	}
	return DecodePayload(dst, payload)
}

// Inflate undoes a stream's lossless stage and checks the payload's
// header as DecodePayload does before it sizes anything, returning the
// payload and the dims it claims. It allocates only as DEFLATE really
// produces bytes, so a caller that decodes several streams into one
// output can check every stream's dims before allocating that output.
func Inflate(buf []byte) ([]byte, []int, error) {
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
	h, err := readHeader(&byteReader{buf: payload})
	if err != nil {
		return nil, nil, err
	}
	return payload, h.dims, nil
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

// header is a payload's fixed part, checked against itself and the
// bytes behind it.
type header struct {
	mode    Mode
	dims    []int
	n       int // values
	eb      float64
	minLog  float64
	nUnpred int
	huff    []byte // the Huffman section
}

// readHeader reads and checks a payload's header, leaving rd at the
// unpredictable values. Every count it returns is bounded by the bytes
// of the payload, so sizing a buffer by it costs memory in proportion
// to the input.
func readHeader(rd *byteReader) (header, error) {
	var h header
	if string(rd.take(len(magic))) != magic {
		return h, fmt.Errorf("%w: bad inner magic", ErrCorrupt)
	}
	if v := rd.u8(); v != version {
		return h, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	h.mode = Mode(rd.u8())
	if streamFlags := rd.u8(); streamFlags != 0 {
		return h, fmt.Errorf("%w: unknown stream flags %#x", ErrCorrupt, streamFlags)
	}
	ndims := int(rd.u8())
	if rd.err != nil || ndims < 1 || ndims > 3 {
		return h, fmt.Errorf("%w: bad ndims", ErrCorrupt)
	}
	h.dims = make([]int, ndims)
	h.n = 1
	for i := range h.dims {
		d := int(rd.u32())
		if d <= 0 || d > maxDim {
			return h, fmt.Errorf("%w: bad dimension %d", ErrCorrupt, d)
		}
		h.dims[i] = d
		h.n *= d
		if h.n > maxElements {
			return h, fmt.Errorf("%w: element count overflows cap", ErrCorrupt)
		}
	}
	h.eb = math.Float64frombits(rd.u64())
	_ = math.Float64frombits(rd.u64()) // original user parameter, informational
	h.minLog = math.Float64frombits(rd.u64())
	h.nUnpred = int(rd.u32())
	huffLen := int(rd.u32())
	if rd.err != nil {
		return h, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if h.nUnpred < 0 || h.nUnpred > h.n {
		return h, fmt.Errorf("%w: unpredictable count %d out of range", ErrCorrupt, h.nUnpred)
	}
	if h.eb <= 0 || math.IsNaN(h.eb) || math.IsInf(h.eb, 0) {
		return h, fmt.Errorf("%w: invalid error bound", ErrCorrupt)
	}
	h.huff = rd.take(huffLen)
	if rd.err != nil {
		return h, fmt.Errorf("%w: truncated huffman section", ErrCorrupt)
	}
	// Every decoded symbol costs at least one bit, so the Huffman
	// section must hold at least n bits; a shorter section means the
	// count metadata is corrupt. Checking before sizing the symbol and
	// reconstruction buffers keeps allocations proportional to the
	// stream instead of to header-claimed dimensions.
	if h.n > 8*huffLen {
		return h, wrapCorrupt("element count %d exceeds huffman section capacity (%d bytes)", h.n, huffLen)
	}
	return h, nil
}

// DecodePayload decodes a payload Inflate returned; with it, it is
// Decompress.
func DecodePayload(dst []float64, p []byte) ([]float64, []int, error) {
	rd := &byteReader{buf: p}
	h, err := readHeader(rd)
	if err != nil {
		return nil, nil, err
	}
	mode, dims, n, eb, minLog, nUnpred := h.mode, h.dims, h.n, h.eb, h.minLog, h.nUnpred
	if dst != nil && len(dst) != n {
		return nil, nil, wrapCorrupt("stream holds %d values, dst %d", n, len(dst))
	}
	unpred := make([]float64, nUnpred) //arcvet:ignore allocguard readHeader bounds nUnpred <= n <= 8*len(huff section)
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
	br := bitio.NewReader(h.huff)
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
	recon, err := dequantize(dst, syms, dims, eb, unpred) //arcvet:ignore allocguard readHeader caps the dims' product at maxElements and at 8*len(huff section)
	if err != nil {
		return nil, nil, err
	}
	if mode == ModePWREL {
		flagBytes := rd.take((2*n + 7) / 8)
		if rd.err != nil {
			return nil, nil, fmt.Errorf("%w: truncated flag stream", ErrCorrupt)
		}
		// Each value leaves the log domain in place: it depends only on
		// its own reconstruction and flag.
		fr := bitio.NewReader(flagBytes)
		for i := 0; i < n; i++ {
			f, err := fr.ReadBits(2)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: flag stream: %v", ErrCorrupt, err)
			}
			switch f {
			case 2:
				recon[i] = 0
			case 1:
				recon[i] = -math.Exp2(recon[i])
			default:
				recon[i] = math.Exp2(recon[i])
			}
		}
		_ = minLog
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
