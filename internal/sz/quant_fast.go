package sz

// Batched residual quantization — the hot loops of the SZ pipeline,
// restructured from the per-element predictor dispatch in quantizeRef
// into branch-light passes over contiguous rows.
//
// The loop is latency-bound, not throughput-bound: every prediction
// consumes the previous element's reconstruction, so the out-of-order
// engine hides most per-element bookkeeping under that serial chain.
// Two distinct correctness regimes make the fast paths possible:
//
//   - Prediction and reconstruction arithmetic must match the decoder
//     bit for bit — the encoder's bound guard is only meaningful if the
//     decoder reproduces the same reconstruction chain. These
//     expressions are kept *structurally identical* to the reference,
//     including the explicit zero terms at domain boundaries (IEEE-754
//     addition is not associative, and Go correctly never folds x+0 for
//     floats: 0.0 + -0.0 is +0.0). Missing neighbor rows are
//     substituted with a preallocated zero row, collapsing every
//     boundary variant into the one interior expression.
//
//   - Code *selection* is the encoder's private choice: the decoder
//     only evaluates p + code*twoEB, and the guard below re-checks the
//     exact reconstruction against the bound for whatever code was
//     picked. The fast path therefore selects codes with the
//     RoundToEven intrinsic over a precomputed reciprocal — one ROUNDSD
//     and a multiply on the critical path instead of a non-inlinable
//     math.Round call and a divide — which may (at exact half-way
//     quotients, probability ~ULP) pick a neighboring code; both codes
//     satisfy the bound.
//
// The remaining latency is attacked by running rows side by side: row
// x+1 depends on row x only at columns <= k-1, so element (x, k) and
// element (x+1, k-s) are independent for any skew s >= 1. The word
// path interleaves two rows at a skew of two; under gf256's avx2 tier
// (ARC_SIMD and gf256.ForceTier choose) the kernels in quant_amd64.s
// carry eight rows at a skew of one, a lane each. The per-element
// expressions and their evaluation order are untouched — only the
// schedule across independent elements changes — so every path stays
// bit-identical. Only an unpredictable value gets symbol 0, so the
// pool is collected after the kernel in raster order and no kernel
// queues it; the kernels count the zero symbols they emit, so the pool
// is sized exactly and a field with none is not scanned.
//
// Differential tests in quant_fast_test.go pin every path to its
// reference.

import (
	"math"

	"repro/internal/gf256"
)

// quantOne quantizes one value against its prediction. It returns the
// reconstructed value and the symbol, 0 for an unpredictable value,
// which reconstructs exactly. Small enough to inline (RoundToEven and
// Abs are compiler intrinsics).
func quantOne(v, p, eb, invTwoEB, twoEB float64) (float64, int32) {
	code := math.RoundToEven((v - p) * invTwoEB)
	// A NaN code needs no explicit check: NaN fails the < comparison.
	if math.Abs(code) < quantRadius-1 {
		// float64() rounds the product before the sum, as the decoder
		// does on every architecture (docs/FORMAT.md): no fused
		// multiply-add.
		r := p + float64(code*twoEB)
		// Guard against floating-point rounding pushing the
		// reconstruction out of bounds. This also catches any code the
		// reciprocal selection placed one step off the reference choice.
		if math.Abs(r-v) <= eb {
			return r, int32(code) + quantRadius
		}
	}
	return v, 0
}

// quantize runs the prediction + quantization stage, producing the
// symbol stream (0 = unpredictable, otherwise code+quantRadius) and
// the unpredictable values in order of appearance. quantizeRef is the
// retained scalar reference.
func quantize(data []float64, dims []int, eb float64) (syms []int32, unpred []float64) {
	syms = make([]int32, len(data))
	zeros := quantizeRecon(data, dims, eb, syms, make([]float64, len(data)))
	if zeros == 0 {
		return syms, nil
	}
	unpred = make([]float64, 0, zeros)
	for i, s := range syms {
		if s == 0 {
			unpred = append(unpred, data[i])
		}
	}
	return syms, unpred
}

// quantizeRecon fills syms and the reconstruction recon for data
// through a dimension-specialized batched kernel and returns how many
// symbols are 0. Like every kernel below it counts the zeros as it
// emits them.
func quantizeRecon(data []float64, dims []int, eb float64, syms []int32, recon []float64) int {
	switch len(dims) {
	case 2:
		return quantize2D(data, dims[0], dims[1], eb, syms, recon)
	case 3:
		return quantize3D(data, dims[0], dims[1], dims[2], eb, syms, recon)
	default:
		return quantize1D(data, eb, syms, recon)
	}
}

func quantize1D(data []float64, eb float64, syms []int32, recon []float64) (zeros int) {
	twoEB := 2 * eb
	invTwoEB := 1 / twoEB
	left := 0.0
	for i, v := range data {
		r, s := quantOne(v, left, eb, invTwoEB, twoEB)
		if s == 0 {
			zeros++
		}
		syms[i] = s
		recon[i] = r
		left = r
	}
	return zeros
}

// rowSkew is the column offset between the two interleaved rows of a
// word-path pair: element (x+1, k-rowSkew) only reads row x at columns
// k-rowSkew and k-rowSkew-1, both already written.
const rowSkew = 2

// vecRows is how many rows the AVX2 kernels carry: lanes 0-7 of two
// four-lane vectors, lane r on row y+r at step k's column k-r. Step
// vecRows-1 is the first at which every lane has a column.
const vecRows = 8

// vectorRows reports whether rows of the given width take the AVX2
// kernels: under gf256's avx2 tier or above, and wide enough for one
// step with all eight lanes.
func vectorRows(width int) bool {
	return width >= vecRows && gf256.AtLeast(gf256.LevelAVX2)
}

// quantRow2D quantizes columns [lo, hi) of one row of a 2-D field
// against up, the reconstructed row above it (a zero row for the
// first); columns before lo must be done. It returns how many symbols
// it set to 0.
func quantRow2D(src, row []float64, ss []int32, up []float64, lo, hi int, eb, invTwoEB, twoEB float64) (zeros int) {
	if lo >= hi {
		return 0
	}
	var left float64
	if lo == 0 {
		// y == 0: left and up-left are zero (explicit zero terms keep
		// the expression identical to the reference stencil).
		p := 0 + up[0] - 0
		left, ss[0] = quantOne(src[0], p, eb, invTwoEB, twoEB)
		if ss[0] == 0 {
			zeros++
		}
		row[0] = left
		lo = 1
	} else {
		left = row[lo-1]
	}
	for y := lo; y < hi; y++ {
		p := left + up[y] - up[y-1]
		r, s := quantOne(src[y], p, eb, invTwoEB, twoEB)
		if s == 0 {
			zeros++
		}
		ss[y] = s
		row[y] = r
		left = r
	}
	return zeros
}

func quantize2D(data []float64, d0, d1 int, eb float64, syms []int32, recon []float64) (zeros int) {
	twoEB := 2 * eb
	invTwoEB := 1 / twoEB
	zeroRow := make([]float64, d1)
	x := 0
	if vectorRows(d1) {
		for ; x+vecRows <= d0; x += vecRows {
			up := zeroRow
			if x > 0 {
				up = recon[(x-1)*d1 : x*d1]
			}
			zeros += quantGroup2D(data, recon, syms, up, x, d1, eb, invTwoEB, twoEB)
		}
	}
	for ; x+1 < d0; x += 2 {
		base0 := x * d1
		base1 := base0 + d1
		up0 := zeroRow
		if x > 0 {
			up0 = recon[base0-d1 : base0 : base0]
		}
		row0 := recon[base0 : base0+d1 : base0+d1]
		row1 := recon[base1 : base1+d1 : base1+d1]
		src0 := data[base0 : base0+d1 : base0+d1]
		src1 := data[base1 : base1+d1 : base1+d1]
		ss0 := syms[base0 : base0+d1 : base0+d1]
		ss1 := syms[base1 : base1+d1 : base1+d1]
		var left0, left1 float64
		for k := 0; k < d1+rowSkew; k++ {
			if k < d1 {
				var p float64
				if k == 0 {
					p = 0 + up0[0] - 0
				} else {
					p = left0 + up0[k] - up0[k-1]
				}
				r, s := quantOne(src0[k], p, eb, invTwoEB, twoEB)
				if s == 0 {
					zeros++
				}
				ss0[k] = s
				row0[k] = r
				left0 = r
			}
			if j := k - rowSkew; j >= 0 {
				var p float64
				if j == 0 {
					p = 0 + row0[0] - 0
				} else {
					p = left1 + row0[j] - row0[j-1]
				}
				r, s := quantOne(src1[j], p, eb, invTwoEB, twoEB)
				if s == 0 {
					zeros++
				}
				ss1[j] = s
				row1[j] = r
				left1 = r
			}
		}
	}
	for ; x < d0; x++ { // odd trailing row
		base := x * d1
		up := zeroRow
		if x > 0 {
			up = recon[base-d1 : base : base]
		}
		zeros += quantRow2D(data[base:base+d1], recon[base:base+d1], syms[base:base+d1], up, 0, d1, eb, invTwoEB, twoEB)
	}
	return zeros
}

// quantGroup2D quantizes rows x to x+vecRows-1 of a 2-D field: the
// columns each lane has before the first full step and after the last
// in Go, the full steps in lorenzo2DAVX2. up is the row above the
// group. It returns how many symbols it set to 0.
func quantGroup2D(data, recon []float64, syms []int32, up []float64, x, d1 int, eb, invTwoEB, twoEB float64) (zeros int) {
	const first = vecRows - 1
	var st [32]float64
	for r := 0; r < vecRows; r++ {
		b := (x + r) * d1
		upr := up
		if r > 0 {
			upr = recon[b-d1 : b]
		}
		zeros += quantRow2D(data[b:b+d1], recon[b:b+d1], syms[b:b+d1], upr, 0, first-r, eb, invTwoEB, twoEB)
		if c := first - 1 - r; c >= 0 { // lane r's left and up-left
			st[r], st[vecRows+r] = recon[b+c], upr[c]
		}
	}
	b := x*d1 + first
	zeros += lorenzo2DAVX2(&data[b], &recon[b], &syms[b], &up[first], &st, d1, d1-first, eb, invTwoEB, twoEB)
	for r := 1; r < vecRows; r++ {
		b := (x + r) * d1
		zeros += quantRow2D(data[b:b+d1], recon[b:b+d1], syms[b:b+d1], recon[b-d1:b], d1-r, d1, eb, invTwoEB, twoEB)
	}
	return zeros
}

// quantRow3D quantizes columns [lo, hi) of one row of a 3-D plane
// against the reconstructed rows up (above it), back (behind it, in
// the previous plane) and backup (above back), each a zero row where
// the field has none; columns before lo must be done. It returns how
// many symbols it set to 0.
func quantRow3D(src, row []float64, ss []int32, up, back, backup []float64, lo, hi int, eb, invTwoEB, twoEB float64) (zeros int) {
	if lo >= hi {
		return 0
	}
	var left float64
	if lo == 0 {
		// x == 0: every left-shifted term is zero; term order matches
		// the reference Lorenzo expression exactly.
		p := 0 + up[0] + back[0] - 0 - 0 - backup[0] + 0
		left, ss[0] = quantOne(src[0], p, eb, invTwoEB, twoEB)
		if ss[0] == 0 {
			zeros++
		}
		row[0] = left
		lo = 1
	} else {
		left = row[lo-1]
	}
	for x := lo; x < hi; x++ {
		p := left + up[x] + back[x] - up[x-1] - back[x-1] - backup[x] + backup[x-1]
		r, s := quantOne(src[x], p, eb, invTwoEB, twoEB)
		if s == 0 {
			zeros++
		}
		ss[x] = s
		row[x] = r
		left = r
	}
	return zeros
}

func quantize3D(data []float64, d0, d1, d2 int, eb float64, syms []int32, recon []float64) (zeros int) {
	twoEB := 2 * eb
	invTwoEB := 1 / twoEB
	vec := vectorRows(d2) && d1 >= vecRows
	// A vector group reads the plane behind it at its lanes' strides,
	// so the zero plane behind plane 0 is vecRows zero rows.
	zeroRows := 1
	if vec {
		zeroRows = vecRows
	}
	zero := make([]float64, zeroRows*d2)
	zeroRow := zero[:d2:d2]
	planeStride := d1 * d2
	for z := 0; z < d0; z++ {
		y := 0
		if vec {
			for ; y+vecRows <= d1; y += vecRows {
				zeros += quantGroup3D(data, recon, syms, zero, z, y, d1, d2, eb, invTwoEB, twoEB)
			}
		}
		for ; y+1 < d1; y += 2 { // software-pipelined row pairs
			base0 := z*planeStride + y*d2
			base1 := base0 + d2
			row0 := recon[base0 : base0+d2 : base0+d2]
			row1 := recon[base1 : base1+d2 : base1+d2]
			src0 := data[base0 : base0+d2 : base0+d2]
			src1 := data[base1 : base1+d2 : base1+d2]
			ss0 := syms[base0 : base0+d2 : base0+d2]
			ss1 := syms[base1 : base1+d2 : base1+d2]
			up0, back0, backup0 := zeroRow, zeroRow, zeroRow
			back1, backup1 := zeroRow, zeroRow
			if y > 0 {
				up0 = recon[base0-d2 : base0 : base0]
			}
			if z > 0 {
				back0 = recon[base0-planeStride : base0-planeStride+d2 : base0-planeStride+d2]
				back1 = recon[base1-planeStride : base1-planeStride+d2 : base1-planeStride+d2]
				backup1 = back0
				if y > 0 {
					backup0 = recon[base0-planeStride-d2 : base0-planeStride : base0-planeStride]
				}
			}
			var left0, left1 float64
			for k := 0; k < d2+rowSkew; k++ {
				if k < d2 {
					var p float64
					if k == 0 {
						p = 0 + up0[0] + back0[0] - 0 - 0 - backup0[0] + 0
					} else {
						p = left0 + up0[k] + back0[k] - up0[k-1] - back0[k-1] - backup0[k] + backup0[k-1]
					}
					r, s := quantOne(src0[k], p, eb, invTwoEB, twoEB)
					if s == 0 {
						zeros++
					}
					ss0[k] = s
					row0[k] = r
					left0 = r
				}
				if j := k - rowSkew; j >= 0 {
					var p float64
					if j == 0 {
						p = 0 + row0[0] + back1[0] - 0 - 0 - backup1[0] + 0
					} else {
						p = left1 + row0[j] + back1[j] - row0[j-1] - back1[j-1] - backup1[j] + backup1[j-1]
					}
					r, s := quantOne(src1[j], p, eb, invTwoEB, twoEB)
					if s == 0 {
						zeros++
					}
					ss1[j] = s
					row1[j] = r
					left1 = r
				}
			}
		}
		for ; y < d1; y++ { // odd trailing row of the plane
			base := z*planeStride + y*d2
			up, back, backup := neighbourRows(recon, zeroRow, z, y, d1, d2)
			zeros += quantRow3D(data[base:base+d2], recon[base:base+d2], syms[base:base+d2], up, back, backup, 0, d2, eb, invTwoEB, twoEB)
		}
	}
	return zeros
}

// neighbourRows returns the reconstructed rows around row y of plane z
// of a 3-D field: up (above it), back (behind it, in the previous
// plane) and backup (above back), each zeroRow where the field has
// none.
func neighbourRows(recon, zeroRow []float64, z, y, d1, d2 int) (up, back, backup []float64) {
	planeStride := d1 * d2
	base := z*planeStride + y*d2
	up, back, backup = zeroRow, zeroRow, zeroRow
	if y > 0 {
		up = recon[base-d2 : base : base]
	}
	if z > 0 {
		back = recon[base-planeStride : base-planeStride+d2 : base-planeStride+d2]
		if y > 0 {
			backup = recon[base-planeStride-d2 : base-planeStride : base-planeStride]
		}
	}
	return up, back, backup
}

// quantGroup3D is quantGroup2D for rows y to y+vecRows-1 of plane z of
// a 3-D field. zero holds vecRows zero rows: the plane behind plane 0.
func quantGroup3D(data, recon []float64, syms []int32, zero []float64, z, y, d1, d2 int, eb, invTwoEB, twoEB float64) (zeros int) {
	const first = vecRows - 1
	zeroRow := zero[:d2:d2]
	planeStride := d1 * d2
	base := z*planeStride + y*d2 // lane 0's row
	var st [32]float64
	for r := 0; r < vecRows; r++ {
		b := base + r*d2
		up, back, backup := neighbourRows(recon, zeroRow, z, y+r, d1, d2)
		zeros += quantRow3D(data[b:b+d2], recon[b:b+d2], syms[b:b+d2], up, back, backup, 0, first-r, eb, invTwoEB, twoEB)
		if c := first - 1 - r; c >= 0 { // lane r's left, up-left, back-left and back-up-left
			st[r], st[vecRows+r], st[2*vecRows+r], st[3*vecRows+r] = recon[b+c], up[c], back[c], backup[c]
		}
	}
	up, _, backup := neighbourRows(recon, zeroRow, z, y, d1, d2)
	backLanes := zero[first:] // lane r's back row at lane 0's offset + r*(d2-1)
	if z > 0 {
		backLanes = recon[base-planeStride+first:]
	}
	b := base + first
	zeros += lorenzo3DAVX2(&data[b], &recon[b], &syms[b], &up[first], &backLanes[0], &backup[first], &st, d2, d2-first, eb, invTwoEB, twoEB)
	for r := 1; r < vecRows; r++ {
		b := base + r*d2
		up, back, backup := neighbourRows(recon, zeroRow, z, y+r, d1, d2)
		zeros += quantRow3D(data[b:b+d2], recon[b:b+d2], syms[b:b+d2], up, back, backup, d2-r, d2, eb, invTwoEB, twoEB)
	}
	return zeros
}

// dequantize reverses quantize given the symbol stream and the
// unpredictable values, through the same dimension-specialized batched
// kernels; dequantizeRef is the retained scalar reference. Symbols are
// taken from syms a row at a time, so a Huffman-backed reader decodes
// them a chunk ahead and the field's worth is never in memory. The
// values go to dst, which must hold exactly the field; nil allocates.
func dequantize(dst []float64, syms *symReader, dims []int, eb float64, unpred []float64) ([]float64, error) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	recon := dst
	if recon == nil {
		recon = make([]float64, n)
	}
	var err error
	switch len(dims) {
	case 2:
		err = dequantize2D(syms, dims[0], dims[1], eb, unpred, recon)
	case 3:
		err = dequantize3D(syms, dims[0], dims[1], dims[2], eb, unpred, recon)
	default:
		err = dequantize1D(syms, eb, unpred, recon)
	}
	if err != nil {
		return nil, err
	}
	return recon, nil
}

// errUnpredExhausted reports a stream with more unpredictable symbols
// than unpredictable values.
var errUnpredExhausted = wrapCorrupt("unpredictable pool exhausted")

func dequantize1D(syms *symReader, eb float64, unpred []float64, recon []float64) error {
	twoEB := 2 * eb
	left := 0.0
	ui := 0
	for base := 0; base < len(recon); base += symChunk {
		out := recon[base:min(base+symChunk, len(recon))]
		ss, err := syms.next(len(out))
		if err != nil {
			return err
		}
		for i, s := range ss {
			if s == 0 {
				if ui >= len(unpred) {
					return errUnpredExhausted
				}
				left = unpred[ui]
				ui++
			} else {
				left += float64(float64(s-quantRadius) * twoEB)
			}
			out[i] = left
		}
	}
	return nil
}

func dequantize2D(syms *symReader, d0, d1 int, eb float64, unpred []float64, recon []float64) error {
	twoEB := 2 * eb
	up := make([]float64, d1)
	ui := 0
	for x := 0; x < d0; x++ {
		base := x * d1
		row := recon[base : base+d1 : base+d1]
		ss, err := syms.next(d1)
		if err != nil {
			return err
		}
		var left float64
		if s := ss[0]; s == 0 {
			if ui >= len(unpred) {
				return errUnpredExhausted
			}
			left = unpred[ui]
			ui++
		} else {
			p := 0 + up[0] - 0
			left = p + float64(float64(s-quantRadius)*twoEB)
		}
		row[0] = left
		for y := 1; y < d1; y++ {
			if s := ss[y]; s == 0 {
				if ui >= len(unpred) {
					return errUnpredExhausted
				}
				left = unpred[ui]
				ui++
			} else {
				p := left + up[y] - up[y-1]
				left = p + float64(float64(s-quantRadius)*twoEB)
			}
			row[y] = left
		}
		up = row
	}
	return nil
}

func dequantize3D(syms *symReader, d0, d1, d2 int, eb float64, unpred []float64, recon []float64) error {
	twoEB := 2 * eb
	zeroRow := make([]float64, d2)
	planeStride := d1 * d2
	ui := 0
	for z := 0; z < d0; z++ {
		for y := 0; y < d1; y++ {
			base := z*planeStride + y*d2
			row := recon[base : base+d2 : base+d2]
			ss, err := syms.next(d2)
			if err != nil {
				return err
			}
			up, back, backup := zeroRow, zeroRow, zeroRow
			if y > 0 {
				up = recon[base-d2 : base : base]
			}
			if z > 0 {
				back = recon[base-planeStride : base-planeStride+d2 : base-planeStride+d2]
				if y > 0 {
					backup = recon[base-planeStride-d2 : base-planeStride : base-planeStride]
				}
			}
			var left float64
			if s := ss[0]; s == 0 {
				if ui >= len(unpred) {
					return errUnpredExhausted
				}
				left = unpred[ui]
				ui++
			} else {
				p := 0 + up[0] + back[0] - 0 - 0 - backup[0] + 0
				left = p + float64(float64(s-quantRadius)*twoEB)
			}
			row[0] = left
			for x := 1; x < d2; x++ {
				if s := ss[x]; s == 0 {
					if ui >= len(unpred) {
						return errUnpredExhausted
					}
					left = unpred[ui]
					ui++
				} else {
					p := left + up[x] + back[x] - up[x-1] - back[x-1] - backup[x] + backup[x-1]
					left = p + float64(float64(s-quantRadius)*twoEB)
				}
				row[x] = left
			}
		}
	}
	return nil
}
