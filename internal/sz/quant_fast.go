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
// The remaining latency is attacked by software pipelining: row x+1
// depends on row x only at columns <= k-1, so interleaving element
// (x, k) with (x+1, k-2) runs two reconstruction chains concurrently.
// The per-element expressions and their evaluation order are untouched
// — only the schedule across independent elements changes — so the
// interleaved kernels stay bit-identical. Unpredictable values from
// the second row of a pair are staged in a scratch buffer and flushed
// after the pair, keeping the pool in raster order.
//
// Differential tests in quant_fast_test.go pin every path to its
// reference.

import "math"

// quantOne quantizes one value against its prediction. It returns the
// reconstructed value, the symbol, and whether the value was
// predictable; unpredictable values reconstruct exactly. Small enough
// to inline (RoundToEven and Abs are compiler intrinsics).
func quantOne(v, p, eb, invTwoEB, twoEB float64) (float64, int32, bool) {
	code := math.RoundToEven((v - p) * invTwoEB)
	// A NaN code needs no explicit check: NaN fails the < comparison.
	if math.Abs(code) < quantRadius-1 {
		r := p + code*twoEB
		// Guard against floating-point rounding pushing the
		// reconstruction out of bounds. This also catches any code the
		// reciprocal selection placed one step off the reference choice.
		if math.Abs(r-v) <= eb {
			return r, int32(code) + quantRadius, true
		}
	}
	return v, 0, false
}

// quantize runs the prediction + quantization stage, producing the
// symbol stream (0 = unpredictable, otherwise code+quantRadius) and
// the unpredictable values in order of appearance. It dispatches to a
// dimension-specialized batched kernel; quantizeRef is the retained
// scalar reference.
func quantize(data []float64, dims []int, eb float64) (syms []int32, unpred []float64) {
	n := len(data)
	syms = make([]int32, n)
	recon := make([]float64, n)
	switch len(dims) {
	case 2:
		unpred = quantize2D(data, dims[0], dims[1], eb, syms, recon)
	case 3:
		unpred = quantize3D(data, dims[0], dims[1], dims[2], eb, syms, recon)
	default:
		unpred = quantize1D(data, eb, syms, recon)
	}
	return syms, unpred
}

func quantize1D(data []float64, eb float64, syms []int32, recon []float64) (unpred []float64) {
	twoEB := 2 * eb
	invTwoEB := 1 / twoEB
	left := 0.0
	for i, v := range data {
		r, s, ok := quantOne(v, left, eb, invTwoEB, twoEB)
		syms[i] = s
		recon[i] = r
		if !ok {
			unpred = append(unpred, v)
		}
		left = r
	}
	return unpred
}

// rowSkew is the column offset between the two interleaved rows of a
// software-pipelined pair: element (x+1, k-rowSkew) only reads row x at
// columns k-rowSkew and k-rowSkew-1, both already written.
const rowSkew = 2

func quantize2D(data []float64, d0, d1 int, eb float64, syms []int32, recon []float64) (unpred []float64) {
	twoEB := 2 * eb
	invTwoEB := 1 / twoEB
	zeroRow := make([]float64, d1)
	var pending []float64
	x := 0
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
		pending = pending[:0]
		var left0, left1 float64
		for k := 0; k < d1+rowSkew; k++ {
			if k < d1 {
				var p float64
				if k == 0 {
					// y == 0: left and up-left are zero (explicit zero
					// terms keep the expression identical to the
					// reference stencil).
					p = 0 + up0[0] - 0
				} else {
					p = left0 + up0[k] - up0[k-1]
				}
				r, s, ok := quantOne(src0[k], p, eb, invTwoEB, twoEB)
				ss0[k] = s
				row0[k] = r
				if !ok {
					unpred = append(unpred, src0[k])
				}
				left0 = r
			}
			if j := k - rowSkew; j >= 0 {
				var p float64
				if j == 0 {
					p = 0 + row0[0] - 0
				} else {
					p = left1 + row0[j] - row0[j-1]
				}
				r, s, ok := quantOne(src1[j], p, eb, invTwoEB, twoEB)
				ss1[j] = s
				row1[j] = r
				if !ok {
					pending = append(pending, src1[j])
				}
				left1 = r
			}
		}
		unpred = append(unpred, pending...)
	}
	for ; x < d0; x++ { // odd trailing row
		base := x * d1
		up := zeroRow
		if x > 0 {
			up = recon[base-d1 : base : base]
		}
		row := recon[base : base+d1 : base+d1]
		src := data[base : base+d1 : base+d1]
		ss := syms[base : base+d1 : base+d1]
		p := 0 + up[0] - 0
		left, s, ok := quantOne(src[0], p, eb, invTwoEB, twoEB)
		ss[0] = s
		row[0] = left
		if !ok {
			unpred = append(unpred, src[0])
		}
		for y := 1; y < d1; y++ {
			p := left + up[y] - up[y-1]
			r, s, ok := quantOne(src[y], p, eb, invTwoEB, twoEB)
			ss[y] = s
			row[y] = r
			if !ok {
				unpred = append(unpred, src[y])
			}
			left = r
		}
	}
	return unpred
}

func quantize3D(data []float64, d0, d1, d2 int, eb float64, syms []int32, recon []float64) (unpred []float64) {
	twoEB := 2 * eb
	invTwoEB := 1 / twoEB
	zeroRow := make([]float64, d2)
	planeStride := d1 * d2
	var pending []float64
	for z := 0; z < d0; z++ {
		y := 0
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
			pending = pending[:0]
			var left0, left1 float64
			for k := 0; k < d2+rowSkew; k++ {
				if k < d2 {
					var p float64
					if k == 0 {
						// x == 0: every left-shifted term is zero; term
						// order matches the reference Lorenzo expression
						// exactly.
						p = 0 + up0[0] + back0[0] - 0 - 0 - backup0[0] + 0
					} else {
						p = left0 + up0[k] + back0[k] - up0[k-1] - back0[k-1] - backup0[k] + backup0[k-1]
					}
					r, s, ok := quantOne(src0[k], p, eb, invTwoEB, twoEB)
					ss0[k] = s
					row0[k] = r
					if !ok {
						unpred = append(unpred, src0[k])
					}
					left0 = r
				}
				if j := k - rowSkew; j >= 0 {
					var p float64
					if j == 0 {
						p = 0 + row0[0] + back1[0] - 0 - 0 - backup1[0] + 0
					} else {
						p = left1 + row0[j] + back1[j] - row0[j-1] - back1[j-1] - backup1[j] + backup1[j-1]
					}
					r, s, ok := quantOne(src1[j], p, eb, invTwoEB, twoEB)
					ss1[j] = s
					row1[j] = r
					if !ok {
						pending = append(pending, src1[j])
					}
					left1 = r
				}
			}
			unpred = append(unpred, pending...)
		}
		for ; y < d1; y++ { // odd trailing row of the plane
			base := z*planeStride + y*d2
			row := recon[base : base+d2 : base+d2]
			src := data[base : base+d2 : base+d2]
			ss := syms[base : base+d2 : base+d2]
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
			p := 0 + up[0] + back[0] - 0 - 0 - backup[0] + 0
			left, s, ok := quantOne(src[0], p, eb, invTwoEB, twoEB)
			ss[0] = s
			row[0] = left
			if !ok {
				unpred = append(unpred, src[0])
			}
			for x := 1; x < d2; x++ {
				p := left + up[x] + back[x] - up[x-1] - back[x-1] - backup[x] + backup[x-1]
				r, s, ok := quantOne(src[x], p, eb, invTwoEB, twoEB)
				ss[x] = s
				row[x] = r
				if !ok {
					unpred = append(unpred, src[x])
				}
				left = r
			}
		}
	}
	return unpred
}

// dequantize reverses quantize given the symbol stream and the
// unpredictable values, through the same dimension-specialized batched
// kernels; dequantizeRef is the retained scalar reference. Symbols are
// taken from syms a row at a time, so a Huffman-backed reader decodes
// them a chunk ahead and the field's worth is never in memory.
func dequantize(syms *symReader, dims []int, eb float64, unpred []float64) ([]float64, error) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	recon := make([]float64, n)
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
				left += float64(s-quantRadius) * twoEB
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
			left = p + float64(s-quantRadius)*twoEB
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
				left = p + float64(s-quantRadius)*twoEB
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
				left = p + float64(s-quantRadius)*twoEB
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
					left = p + float64(s-quantRadius)*twoEB
				}
				row[x] = left
			}
		}
	}
	return nil
}

// mixedQuantizer carries the state shared by the batched block kernels
// of quantizeMixed.
type mixedQuantizer struct {
	data     []float64
	recon    []float64
	res      *mixedResult
	eb       float64
	twoEB    float64
	invTwoEB float64
	dims     []int
	zeroRow  []float64
}

// cell quantizes one value and appends its symbol (and, when
// unpredictable, its value) to the result streams.
func (q *mixedQuantizer) cell(idx int, p float64) {
	v := q.data[idx]
	r, s, ok := quantOne(v, p, q.eb, q.invTwoEB, q.twoEB)
	q.res.syms = append(q.res.syms, s)
	q.recon[idx] = r
	if !ok {
		q.res.unpred = append(q.res.unpred, v)
	}
}

// lorenzoBlock2D quantizes one block with the Lorenzo predictor.
// Neighbors outside the block but inside the domain are already
// reconstructed (blocks are visited in raster order), so only the
// domain boundary substitutes the zero row.
func (q *mixedQuantizer) lorenzoBlock2D(lo, hi [3]int) {
	d1 := q.dims[1]
	for x := lo[0]; x < hi[0]; x++ {
		base := x * d1
		row := q.recon[base : base+d1 : base+d1]
		up := q.zeroRow
		if x > 0 {
			up = q.recon[base-d1 : base : base]
		}
		y := lo[1]
		if y == 0 {
			p := 0 + up[0] - 0
			q.cell(base, p)
			y = 1
		}
		for ; y < hi[1]; y++ {
			p := row[y-1] + up[y] - up[y-1]
			q.cell(base+y, p)
		}
	}
}

func (q *mixedQuantizer) lorenzoBlock3D(lo, hi [3]int) {
	d1, d2 := q.dims[1], q.dims[2]
	planeStride := d1 * d2
	for z := lo[0]; z < hi[0]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			base := z*planeStride + y*d2
			row := q.recon[base : base+d2 : base+d2]
			up, back, backup := q.zeroRow, q.zeroRow, q.zeroRow
			if y > 0 {
				up = q.recon[base-d2 : base : base]
			}
			if z > 0 {
				back = q.recon[base-planeStride : base-planeStride+d2 : base-planeStride+d2]
				if y > 0 {
					backup = q.recon[base-planeStride-d2 : base-planeStride : base-planeStride]
				}
			}
			x := lo[2]
			if x == 0 {
				p := 0 + up[0] + back[0] - 0 - 0 - backup[0] + 0
				q.cell(base, p)
				x = 1
			}
			for ; x < hi[2]; x++ {
				p := row[x-1] + up[x] + back[x] - up[x-1] - back[x-1] - backup[x] + backup[x-1]
				q.cell(base+x, p)
			}
		}
	}
}

// regBlock2D quantizes one block against its regression model. The
// row-constant part of the model is hoisted out of the inner loop;
// regPredict accumulates strictly left-to-right, so the hoisting is
// exactly associative and bit-identical to the reference.
func (q *mixedQuantizer) regBlock2D(lo, hi [3]int, coeffs []float64) {
	d1 := q.dims[1]
	for x := lo[0]; x < hi[0]; x++ {
		base := x * d1
		rowBase := coeffs[0] + coeffs[1]*float64(x-lo[0])
		for y := lo[1]; y < hi[1]; y++ {
			p := rowBase + coeffs[2]*float64(y-lo[1])
			q.cell(base+y, p)
		}
	}
}

func (q *mixedQuantizer) regBlock3D(lo, hi [3]int, coeffs []float64) {
	d1, d2 := q.dims[1], q.dims[2]
	planeStride := d1 * d2
	for z := lo[0]; z < hi[0]; z++ {
		zBase := coeffs[0] + coeffs[1]*float64(z-lo[0])
		for y := lo[1]; y < hi[1]; y++ {
			base := z*planeStride + y*d2
			rowBase := zBase + coeffs[2]*float64(y-lo[1])
			for x := lo[2]; x < hi[2]; x++ {
				p := rowBase + coeffs[3]*float64(x-lo[2])
				q.cell(base+x, p)
			}
		}
	}
}

// quantizeMixed runs prediction + quantization with per-block predictor
// selection. Blocks are visited in raster order and cells within a
// block in row-major order, which guarantees every Lorenzo neighbor is
// already reconstructed. Model fitting and selection are unchanged from
// the reference; the per-cell quantization runs through the batched
// block kernels above.
func quantizeMixed(data []float64, dims []int, eb float64) *mixedResult {
	g := newRegGrid(dims)
	nd := len(dims)
	res := &mixedResult{
		syms:  make([]int32, 0, len(data)),
		modes: make([]bool, g.blocks),
	}
	rowLen := dims[nd-1]
	q := &mixedQuantizer{
		data:     data,
		recon:    make([]float64, len(data)),
		res:      res,
		eb:       eb,
		twoEB:    2 * eb,
		invTwoEB: 1 / (2 * eb),
		dims:     dims,
		zeroRow:  make([]float64, rowLen),
	}
	for b := 0; b < g.blocks; b++ {
		lo, hi := g.blockBounds(b)
		coeffs, qc, useReg := chooseRegression(data, dims, lo, hi, eb)
		res.modes[b] = useReg
		switch {
		case useReg && nd == 2:
			res.qcoeffs = append(res.qcoeffs, qc[:nd+1]...)
			q.regBlock2D(lo, hi, coeffs[:])
		case useReg:
			res.qcoeffs = append(res.qcoeffs, qc[:nd+1]...)
			q.regBlock3D(lo, hi, coeffs[:])
		case nd == 2:
			q.lorenzoBlock2D(lo, hi)
		default:
			q.lorenzoBlock3D(lo, hi)
		}
	}
	return res
}
