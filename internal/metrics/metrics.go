// Package metrics implements the data-integrity metrics of the paper's
// fault study (Section 4.1.3): RMSE, PSNR, maximum absolute difference,
// and the percentage of incorrect elements (values whose error violates
// the configured bound).
package metrics

import (
	"fmt"
	"math"
)

// Summary holds the integrity metrics of a reconstructed dataset
// relative to the original.
type Summary struct {
	RMSE    float64
	PSNR    float64 // dB; +Inf for identical data
	MaxDiff float64
	// IncorrectElements is the count of values whose absolute error
	// exceeds the bound passed to Evaluate (only meaningful when a
	// bound was supplied).
	IncorrectElements int
	// PercentIncorrect = 100 * IncorrectElements / N.
	PercentIncorrect float64
	N                int
}

// RMSE computes the root-mean-squared error between orig and got
// (Equation 1 of the paper). The slices must be the same length.
func RMSE(orig, got []float64) float64 {
	if len(orig) != len(got) {
		panic(fmt.Sprintf("metrics: length mismatch %d != %d", len(orig), len(got)))
	}
	if len(orig) == 0 {
		return 0
	}
	var sum float64
	for i := range orig {
		d := orig[i] - got[i]
		sum += float64(d * d) // no fused multiply-add: one RMSE on every architecture
	}
	return math.Sqrt(sum / float64(len(orig)))
}

// PSNR computes the peak signal-to-noise ratio in dB (Equation 2),
// using the original data's value range as the peak. Identical data
// yields +Inf.
func PSNR(orig, got []float64) float64 {
	rmse := RMSE(orig, got)
	if rmse == 0 {
		return math.Inf(1)
	}
	lo, hi := Range(orig)
	return 20 * math.Log10((hi-lo)/rmse)
}

// Range returns the min and max of data.
func Range(data []float64) (lo, hi float64) {
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

// MaxDiff returns the maximum absolute pointwise difference.
func MaxDiff(orig, got []float64) float64 {
	if len(orig) != len(got) {
		panic(fmt.Sprintf("metrics: length mismatch %d != %d", len(orig), len(got)))
	}
	var m float64
	for i := range orig {
		d := math.Abs(orig[i] - got[i])
		if d > m || math.IsNaN(d) {
			m = d
			if math.IsNaN(d) {
				return math.NaN()
			}
		}
	}
	return m
}

// CountIncorrect counts elements whose absolute error exceeds bound —
// the paper's "percent of incorrect elements" numerator. NaN
// differences count as incorrect.
func CountIncorrect(orig, got []float64, bound float64) int {
	if len(orig) != len(got) {
		panic(fmt.Sprintf("metrics: length mismatch %d != %d", len(orig), len(got)))
	}
	n := 0
	for i := range orig {
		d := math.Abs(orig[i] - got[i])
		if d > bound || math.IsNaN(d) {
			n++
		}
	}
	return n
}

// Evaluate computes the full Summary. Pass a negative bound to skip the
// incorrect-element accounting (the paper does this for SZ-PSNR, whose
// mode does not bound per-value error).
func Evaluate(orig, got []float64, bound float64) Summary {
	s := Summary{
		RMSE:    RMSE(orig, got),
		MaxDiff: MaxDiff(orig, got),
		N:       len(orig),
	}
	s.PSNR = PSNR(orig, got)
	if bound >= 0 {
		s.IncorrectElements = CountIncorrect(orig, got, bound)
		if s.N > 0 {
			s.PercentIncorrect = 100 * float64(s.IncorrectElements) / float64(s.N)
		}
	}
	return s
}

// BoundKind selects the error-bound semantics of VerifyBound.
type BoundKind int

const (
	// BoundAbs: |got - orig| <= bound for every element.
	BoundAbs BoundKind = iota + 1
	// BoundRel: |got - orig| <= bound * |orig| point-wise (exact zeros
	// must be preserved exactly).
	BoundRel
	// BoundPSNR: the dataset-level PSNR must be at least bound dB.
	BoundPSNR
)

// VerifyBound checks a reconstruction against its promised bound and
// returns the index of the first violation (-1 when none). A small
// relative slack absorbs float64 round-off in the check itself.
func VerifyBound(orig, got []float64, kind BoundKind, bound float64) int {
	const slack = 1 + 1e-9
	switch kind {
	case BoundAbs:
		for i := range orig {
			if math.Abs(got[i]-orig[i]) > bound*slack {
				return i
			}
		}
		return -1
	case BoundRel:
		for i := range orig {
			if orig[i] == 0 {
				if got[i] != 0 {
					return i
				}
				continue
			}
			if math.Abs(got[i]-orig[i]) > bound*math.Abs(orig[i])*slack {
				return i
			}
		}
		return -1
	case BoundPSNR:
		if PSNR(orig, got) < bound/slack {
			return 0
		}
		return -1
	default:
		panic(fmt.Sprintf("metrics: unknown bound kind %d", kind))
	}
}
