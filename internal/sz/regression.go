package sz

// Block-wise linear-regression prediction — the headline optimization
// of SZ 2.x (Liang et al., IEEE Big Data 2018), which the paper's SZ
// 2.1.8.1 includes. The field is split into 6^d blocks; each block
// either keeps the Lorenzo predictor or switches to a fitted linear
// model v ~ a0 + a1*x + a2*y (+ a3*z), whichever predicts better. The
// decoder needs the per-block mode bit and the (quantized) regression
// coefficients.
//
// The error bound is preserved unconditionally: residuals are
// quantized against predictions computed from the *dequantized*
// coefficients, exactly as the decoder will compute them, so
// coefficient quantization error can never leak into the data.

import "math"

// regBlockSide is the block edge length (SZ 2.x uses 6).
const regBlockSide = 6

// coeffQuantScale converts regression coefficients to integers:
// step = eb / coeffQuantScale keeps coefficient representation error
// far below the bound (it cannot violate it either way; finer steps
// only improve prediction quality).
const coeffQuantScale = 128

// regGrid describes the block decomposition of a 2D/3D field.
type regGrid struct {
	dims   []int
	nb     []int // blocks per dim
	blocks int
}

func newRegGrid(dims []int) *regGrid {
	g := &regGrid{dims: dims, nb: make([]int, len(dims))}
	g.blocks = 1
	for i, d := range dims {
		g.nb[i] = (d + regBlockSide - 1) / regBlockSide
		g.blocks *= g.nb[i]
	}
	return g
}

// coeffCount is the number of regression coefficients per block.
func (g *regGrid) coeffCount() int { return len(g.dims) + 1 }

// blockBounds returns the half-open index ranges of block b per dim.
func (g *regGrid) blockBounds(b int) (lo, hi [3]int) {
	var bc [3]int
	for i := len(g.dims) - 1; i >= 0; i-- {
		bc[i] = b % g.nb[i]
		b /= g.nb[i]
	}
	for i, d := range g.dims {
		lo[i] = bc[i] * regBlockSide
		hi[i] = lo[i] + regBlockSide
		if hi[i] > d {
			hi[i] = d
		}
	}
	return lo, hi
}

// regCoeffs holds the nd+1 coefficients of one block's model (a0 and
// one slope per axis, nd <= 3) by value, so fitting a block allocates
// nothing; entries past nd stay zero.
type regCoeffs [4]float64

// fitRegression fits v ~ a0 + sum_i a_i * x_i by least squares over a
// block, using the closed form for a regular grid. Returns false when
// the block is degenerate (single cell per axis everywhere).
func fitRegression(data []float64, dims []int, lo, hi [3]int) (coeffs regCoeffs, ok bool) {
	nd := len(dims)
	n := 0.0
	var mean [3]float64 // mean of local coordinate per axis
	var vMean float64
	forEachCell(dims, lo, hi, func(idx int, c [3]int) {
		n++
		vMean += data[idx]
		for i := 0; i < nd; i++ {
			mean[i] += float64(c[i] - lo[i])
		}
	})
	if n == 0 {
		return coeffs, false
	}
	vMean /= n
	for i := range mean {
		mean[i] /= n
	}
	// On a regular grid the coordinate axes are uncorrelated, so each
	// slope is cov(x_i, v)/var(x_i) independently.
	var cov, vr [3]float64
	forEachCell(dims, lo, hi, func(idx int, c [3]int) {
		dv := data[idx] - vMean
		for i := 0; i < nd; i++ {
			dx := float64(c[i]-lo[i]) - mean[i]
			cov[i] += dx * dv
			vr[i] += dx * dx
		}
	})
	for i := 0; i < nd; i++ {
		if vr[i] > 0 {
			coeffs[i+1] = cov[i] / vr[i]
		}
	}
	a0 := vMean
	for i := 0; i < nd; i++ {
		a0 -= coeffs[i+1] * mean[i]
	}
	coeffs[0] = a0
	for _, c := range coeffs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return coeffs, false
		}
	}
	return coeffs, true
}

// forEachCell visits the cells of a block in row-major order, passing
// the flat index and the absolute coordinates.
func forEachCell(dims []int, lo, hi [3]int, f func(idx int, c [3]int)) {
	switch len(dims) {
	case 2:
		d1 := dims[1]
		for x0 := lo[0]; x0 < hi[0]; x0++ {
			for x1 := lo[1]; x1 < hi[1]; x1++ {
				f(x0*d1+x1, [3]int{x0, x1, 0})
			}
		}
	case 3:
		d1, d2 := dims[1], dims[2]
		for x0 := lo[0]; x0 < hi[0]; x0++ {
			for x1 := lo[1]; x1 < hi[1]; x1++ {
				for x2 := lo[2]; x2 < hi[2]; x2++ {
					f((x0*d1+x1)*d2+x2, [3]int{x0, x1, x2})
				}
			}
		}
	}
}

// quantizeCoeffs converts coefficients to integers with step
// eb/coeffQuantScale; saturating coefficients disqualify regression
// for the block.
func quantizeCoeffs(coeffs []float64, eb float64) (out [4]int64, ok bool) {
	step := eb / coeffQuantScale
	for i, c := range coeffs {
		q := math.Round(c / step)
		if math.Abs(q) > math.MaxInt32 || math.IsNaN(q) {
			return out, false
		}
		out[i] = int64(q)
	}
	return out, true
}

// dequantizeCoeffs inverts quantizeCoeffs.
func dequantizeCoeffs(q []int64, eb float64) (out regCoeffs) {
	step := eb / coeffQuantScale
	for i, v := range q {
		out[i] = float64(v) * step
	}
	return out
}

// chooseRegression fits one block and decides its predictor: the model
// as the decoder will see it (quantized, then dequantized), its integer
// form for the stream, and whether it beats Lorenzo.
func chooseRegression(data []float64, dims []int, lo, hi [3]int, eb float64) (coeffs regCoeffs, qc [4]int64, useReg bool) {
	nc := len(dims) + 1
	fit, ok := fitRegression(data, dims, lo, hi)
	if !ok {
		return coeffs, qc, false
	}
	if qc, ok = quantizeCoeffs(fit[:nc], eb); !ok {
		return coeffs, qc, false
	}
	coeffs = dequantizeCoeffs(qc[:nc], eb)
	return coeffs, qc, regressionWins(data, dims, lo, hi, coeffs[:nc], nc-1)
}

// regPredict evaluates a regression model at local coordinates.
func regPredict(coeffs []float64, lo, c [3]int, nd int) float64 {
	p := coeffs[0]
	for i := 0; i < nd; i++ {
		p += coeffs[i+1] * float64(c[i]-lo[i])
	}
	return p
}

// mixedResult carries the streams produced by mixed prediction.
type mixedResult struct {
	syms    []int32
	unpred  []float64
	modes   []bool  // per block: true = regression
	qcoeffs []int64 // concatenated coefficients of regression blocks
}

// quantizeMixedRef is the scalar reference implementation of
// quantizeMixed: a closure visit per cell with a predictor method call
// inside. Retained for differential tests and as the benchmark
// baseline of the batched block kernels in quant_fast.go.
func quantizeMixedRef(data []float64, dims []int, eb float64) *mixedResult {
	g := newRegGrid(dims)
	nd := len(dims)
	res := &mixedResult{
		syms:  make([]int32, 0, len(data)),
		modes: make([]bool, g.blocks),
	}
	recon := make([]float64, len(data))
	pred := newPredictor(dims, recon)
	twoEB := 2 * eb
	for b := 0; b < g.blocks; b++ {
		lo, hi := g.blockBounds(b)
		coeffs, qc, useReg := chooseRegression(data, dims, lo, hi, eb)
		res.modes[b] = useReg
		if useReg {
			res.qcoeffs = append(res.qcoeffs, qc[:nd+1]...)
		}
		forEachCell(dims, lo, hi, func(idx int, c [3]int) {
			var p float64
			if useReg {
				p = regPredict(coeffs[:], lo, c, nd)
			} else {
				p = pred.predict(idx)
			}
			diff := data[idx] - p
			code := math.Round(diff / twoEB)
			if math.Abs(code) < quantRadius-1 && !math.IsNaN(code) {
				r := p + code*twoEB
				if math.Abs(r-data[idx]) <= eb {
					res.syms = append(res.syms, int32(code)+quantRadius)
					recon[idx] = r
					return
				}
			}
			res.syms = append(res.syms, 0)
			res.unpred = append(res.unpred, data[idx])
			recon[idx] = data[idx]
		})
	}
	return res
}

// regressionWins estimates whether the regression model beats Lorenzo
// for a block, comparing absolute residuals (Lorenzo estimated on
// original values, the standard SZ 2.x sampling shortcut).
func regressionWins(data []float64, dims []int, lo, hi [3]int, coeffs []float64, nd int) bool {
	var regErr, lorErr float64
	origPred := newPredictor(dims, data) // Lorenzo proxy on originals
	forEachCell(dims, lo, hi, func(idx int, c [3]int) {
		regErr += math.Abs(data[idx] - regPredict(coeffs, lo, c, nd))
		lorErr += math.Abs(data[idx] - origPred.predict(idx))
	})
	return regErr < lorErr
}

// dequantizeMixed reverses quantizeMixed, taking the symbols a block at
// a time in the order quantizeMixed emitted them.
func dequantizeMixed(syms *symReader, dims []int, eb float64, unpred []float64, modes []bool, qcoeffs []int64) ([]float64, error) {
	g := newRegGrid(dims)
	nd := len(dims)
	if len(modes) != g.blocks {
		return nil, errCorruptf("block mode count %d != %d", len(modes), g.blocks)
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	recon := make([]float64, n)
	pred := newPredictor(dims, recon)
	twoEB := 2 * eb
	ui, ci := 0, 0
	for b := 0; b < g.blocks; b++ {
		lo, hi := g.blockBounds(b)
		var coeffs regCoeffs
		if modes[b] {
			cc := g.coeffCount()
			if ci+cc > len(qcoeffs) {
				return nil, errCorruptf("coefficient pool exhausted")
			}
			coeffs = dequantizeCoeffs(qcoeffs[ci:ci+cc], eb)
			ci += cc
		}
		cells := 1
		for i := 0; i < nd; i++ {
			cells *= hi[i] - lo[i]
		}
		ss, err := syms.next(cells)
		if err != nil {
			return nil, err
		}
		si := 0
		var derr error
		forEachCell(dims, lo, hi, func(idx int, c [3]int) {
			if derr != nil {
				return
			}
			s := ss[si]
			si++
			if s == 0 {
				if ui >= len(unpred) {
					derr = errUnpredExhausted
					return
				}
				recon[idx] = unpred[ui]
				ui++
				return
			}
			var p float64
			if modes[b] {
				p = regPredict(coeffs[:], lo, c, nd)
			} else {
				p = pred.predict(idx)
			}
			recon[idx] = p + float64(s-quantRadius)*twoEB
		})
		if derr != nil {
			return nil, derr
		}
	}
	return recon, nil
}

func errCorruptf(format string, args ...interface{}) error {
	return wrapCorrupt(format, args...)
}
