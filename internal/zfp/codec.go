package zfp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bitio"
)

// blockScratch is the per-block working set: gathered values, the
// fixed-point coefficients, and the negabinary magnitudes. Blocks are
// tiny (4^d values) but the codec touches one per 4^d samples, so
// allocating these per block dominated the encoder's garbage.
type blockScratch struct {
	vals   []float64
	coeffs []int64
	u      []uint64
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// getBlockScratch returns a scratch sized for size-element blocks.
// Contents are unspecified; encodeBlock/decodeBlock assign (or clear)
// every element they read.
func getBlockScratch(size int) *blockScratch {
	s, ok := blockScratchPool.Get().(*blockScratch)
	if !ok {
		s = new(blockScratch) // unreachable: the pool's New returns *blockScratch
	}
	s.vals = growSlice(s.vals, size)
	s.coeffs = growSlice(s.coeffs, size)
	s.u = growSlice(s.u, size)
	return s
}

func putBlockScratch(s *blockScratch) { blockScratchPool.Put(s) }

func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// blockBits returns the exact bit budget of one fixed-rate block.
func blockBits(rate float64, size int) int {
	return int(math.Round(rate * float64(size)))
}

// minRate is the smallest fixed rate that can hold a block header
// (nonzero flag + exponent) plus one plane bit; lower rates would
// emit blocks larger than their own fixed budget, which cannot be
// decoded. Compress validates against it.
func minRate(size int) float64 {
	return float64(2+expBits) / float64(size)
}

// blockParams is what one Compress or Decompress call fixes for every
// block of the stream, worked out once instead of once per block.
type blockParams struct {
	rate   bool
	budget int // bits per block: exact in ModeRate, out of reach otherwise
	kmin   int // ModeAccuracy: lowest plane kept at exponent 0, falling as emax rises
}

func newBlockParams(opts Options, size int) blockParams {
	if opts.Mode == ModeRate {
		return blockParams{rate: true, budget: blockBits(opts.Param, size)}
	}
	// ModeAccuracy. Bit k of a coefficient carries weight
	// 2^(k-fixedPointBits+emax), and truncation below the tolerance (with
	// a safety margin for inverse transform growth) is allowed:
	// 2^(kmin - fixedPointBits + emax) <= tol / 2^accMargin
	return blockParams{
		budget: 1 + expBits + intPrec*size, // effectively unlimited
		kmin:   int(math.Floor(math.Log2(opts.Param))) + fixedPointBits - accMargin,
	}
}

// kminFor returns the lowest bit plane a block with exponent emax keeps:
// 0 in ModeRate, where the budget decides.
func (p *blockParams) kminFor(emax int) int {
	if p.rate {
		return 0
	}
	return min(max(p.kmin-emax, 0), intPrec)
}

// blockExp returns the max binary exponent over the block per
// math.Frexp (value magnitude < 2^e), and whether any value is
// nonzero. Frexp's exponent is monotone in the magnitude of a finite
// value, so one call on the largest magnitude — compared as bit
// patterns, which order like the magnitudes, subnormals included —
// stands for one call per value; NaN and ±Inf report exponent 0.
func blockExp(vals []float64) (int, bool) {
	const expMask = 0x7ff << 52
	var maxFinite, seen uint64
	special := false
	for _, v := range vals {
		b := math.Float64bits(v) &^ (1 << 63)
		seen |= b
		if b >= expMask {
			special = true
		} else if b > maxFinite {
			maxFinite = b
		}
	}
	e := math.MinInt32
	if maxFinite != 0 {
		_, e = math.Frexp(math.Float64frombits(maxFinite))
	}
	if special && e < 0 {
		e = 0
	}
	return e, seen != 0
}

// encodeBlock writes one block from s.vals (filled by the caller's
// gather); s.coeffs and s.u are scratch.
func encodeBlock(w *bitio.Writer, s *blockScratch, bl *blocker, p *blockParams) {
	vals, coeffs := s.vals, s.coeffs
	size := bl.blockSize
	start := w.Len()

	emax, nonzero := blockExp(vals)
	biased := emax + expBias
	if biased < 1 || biased > 2*expBias {
		nonzero = false // beyond double range: treat as zero block
	}
	if !nonzero {
		w.WriteBit(0)
	} else {
		w.WriteBits(1<<expBits|uint64(biased), 1+expBits) //arcvet:ignore mathbits biased is checked in [1, 2*expBias] above
		scale := math.Ldexp(1, fixedPointBits-emax)
		for i, v := range vals {
			coeffs[i] = int64(v * scale)
		}
		fwdXform(coeffs, bl.nd)
		// Reorder to sequency order and map to negabinary. Every entry
		// of the reused scratch is assigned, so no clearing is needed.
		int2uintBlock(s.u, coeffs, bl.perm)
		encodePlanes(w, s.u, size, p.kminFor(emax), p.budget-1-expBits)
	}
	if p.rate {
		// Pad to the exact fixed size.
		for pad := p.budget - (w.Len() - start); pad > 0; pad -= intPrec {
			w.WriteBits(0, min(pad, intPrec))
		}
	}
}

// decodeBlock reads one block into s.vals (scattered by the caller);
// s.coeffs and s.u are scratch.
func decodeBlock(r *bitio.Reader, s *blockScratch, bl *blocker, p *blockParams) error {
	vals, coeffs := s.vals, s.coeffs
	size := bl.blockSize
	start := r.Pos()

	flag, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("%w: truncated block flag", ErrCorrupt)
	}
	if flag == 0 {
		clear(vals)
	} else {
		biasedU, err := r.ReadBits(expBits)
		if err != nil {
			return fmt.Errorf("%w: truncated exponent", ErrCorrupt)
		}
		emax := int(biasedU) - expBias //arcvet:ignore mathbits biasedU fits in expBits (11) bits
		// decodePlanes ORs bits into u, so the reused scratch must start
		// zeroed.
		u := s.u
		clear(u)
		if err := decodePlanes(r, u, size, p.kminFor(emax), p.budget-1-expBits); err != nil {
			return err
		}
		uint2intBlock(coeffs, u, bl.perm)
		invXform(coeffs, bl.nd)
		scale := math.Ldexp(1, emax-fixedPointBits)
		for i := range vals {
			vals[i] = float64(coeffs[i]) * scale
		}
	}
	if p.rate {
		consumed := r.Pos() - start
		if consumed > p.budget {
			return fmt.Errorf("%w: block overran its budget", ErrCorrupt)
		}
		if err := r.Skip(p.budget - consumed); err != nil {
			return fmt.Errorf("%w: truncated block padding", ErrCorrupt)
		}
	}
	return nil
}
