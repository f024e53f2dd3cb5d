// Package pressio is a small compressor-abstraction layer modeled on
// LibPressio, which the paper uses to normalize its interactions with
// SZ and ZFP. It exposes the five compressor/mode configurations the
// fault study evaluates behind one interface and a registry keyed by
// the paper's mode names.
//
// A field of more than 2^18 values is cut into slabs along its slowest
// dimension, each compressed as a complete SZ or ZFP stream and all of
// them run on every core (slab.go); a smaller field, and an SZ-PSNR
// field of any size, is one bare codec stream, byte for byte what the
// codec writes.
package pressio

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sz"
	"repro/internal/zfp"
)

// Compressor abstracts an error-bounded lossy compressor configuration.
// Implementations are safe for concurrent use.
type Compressor interface {
	// Name is the paper's spelling of the configuration, e.g. "SZ-ABS".
	Name() string
	// Compress encodes row-major data with the given dims (1-3).
	Compress(data []float64, dims []int) ([]byte, error)
	// Decompress decodes a buffer produced by Compress (a bare stream
	// of the configuration's codec, or a slab container of them).
	Decompress(buf []byte) ([]float64, []int, error)
	// Bound returns the configured error-bounding parameter.
	Bound() float64
	// BoundsError reports whether the configuration enforces a
	// per-value error bound (false for ZFP-Rate and SZ-PSNR, whose
	// parameters are not per-value bounds).
	BoundsError() bool
	// WithBound returns a copy of the configuration with a different
	// bounding parameter (used by the compression-ratio search).
	WithBound(b float64) Compressor
}

type szComp struct {
	mode  sz.Mode
	bound float64
}

func (c szComp) Name() string { return c.mode.String() }
func (c szComp) Compress(data []float64, dims []int) ([]byte, error) {
	opts := sz.Options{Mode: c.mode, ErrorBound: c.bound}
	if c.mode == sz.ModePSNR {
		// SZ-PSNR takes its error bound from the value range of the data
		// it is given; a slab's range is not the field's, so the field
		// is never cut.
		return sz.Compress(data, dims, opts)
	}
	return compress(data, dims, func(data []float64, dims []int) ([]byte, error) {
		return sz.Compress(data, dims, opts)
	})
}
func (c szComp) Decompress(buf []byte) ([]float64, []int, error) { return decompress(buf, szCodec) }
func (c szComp) Bound() float64                                  { return c.bound }
func (c szComp) BoundsError() bool                               { return c.mode != sz.ModePSNR }
func (c szComp) WithBound(b float64) Compressor                  { return szComp{c.mode, b} }

type zfpComp struct {
	mode  zfp.Mode
	bound float64
}

func (c zfpComp) Name() string { return c.mode.String() }
func (c zfpComp) Compress(data []float64, dims []int) ([]byte, error) {
	opts := zfp.Options{Mode: c.mode, Param: c.bound}
	return compress(data, dims, func(data []float64, dims []int) ([]byte, error) {
		return zfp.Compress(data, dims, opts)
	})
}
func (c zfpComp) Decompress(buf []byte) ([]float64, []int, error) { return decompress(buf, zfpCodec) }
func (c zfpComp) Bound() float64                                  { return c.bound }
func (c zfpComp) BoundsError() bool                               { return c.mode == zfp.ModeAccuracy }
func (c zfpComp) WithBound(b float64) Compressor                  { return zfpComp{c.mode, b} }

// New returns the named compressor configuration. Names follow the
// paper: SZ-ABS, SZ-PWREL, SZ-PSNR, ZFP-ACC, ZFP-Rate.
func New(name string, bound float64) (Compressor, error) {
	switch name {
	case "SZ-ABS":
		return szComp{sz.ModeABS, bound}, nil
	case "SZ-PWREL":
		return szComp{sz.ModePWREL, bound}, nil
	case "SZ-PSNR":
		return szComp{sz.ModePSNR, bound}, nil
	case "ZFP-ACC":
		return zfpComp{zfp.ModeAccuracy, bound}, nil
	case "ZFP-Rate":
		return zfpComp{zfp.ModeRate, bound}, nil
	default:
		return nil, fmt.Errorf("pressio: unknown compressor %q (want one of %v)", name, Names())
	}
}

// Names lists the available configuration names in a stable order.
func Names() []string {
	n := []string{"SZ-ABS", "SZ-PWREL", "SZ-PSNR", "ZFP-ACC", "ZFP-Rate"}
	sort.Strings(n)
	return n
}

// StudySet returns the five configurations with the paper's default
// parameters: eps = 0.1 for SZ-ABS, SZ-PWREL, ZFP-ACC; PSNR 90 for
// SZ-PSNR; rate 8 for ZFP-Rate (Section 4.1.1).
func StudySet() []Compressor {
	return []Compressor{
		szComp{sz.ModeABS, 0.1},
		szComp{sz.ModePWREL, 0.1},
		szComp{sz.ModePSNR, 90},
		zfpComp{zfp.ModeAccuracy, 0.1},
		zfpComp{zfp.ModeRate, 8},
	}
}

// SearchBound binary-searches the bounding parameter so that the
// compression ratio (uncompressed float64 bytes / compressed bytes)
// lands within tol of target. It returns the tuned compressor and the
// achieved ratio. The ratio must be monotone in the bound: it grows
// with an error bound, and falls as SZ-PSNR's target PSNR rises, so
// that mode searches the other way. ZFP-Rate's ratio is set directly
// from the rate instead.
func SearchBound(c Compressor, data []float64, dims []int, target, tol float64, maxIter int) (Compressor, float64, error) {
	if c.Name() == "ZFP-Rate" {
		// CR = 64 bits per value / rate, so invert directly.
		rate := 64 / target
		if rate <= 0 || rate > 64 {
			return nil, 0, fmt.Errorf("pressio: target ratio %g out of range for ZFP-Rate", target)
		}
		tuned := c.WithBound(rate)
		buf, err := tuned.Compress(data, dims)
		if err != nil {
			return nil, 0, err
		}
		return tuned, ratio(data, buf), nil
	}
	falls := c.Name() == "SZ-PSNR"
	lo, hi := 1e-12, 1e12
	var achieved float64
	best := c
	for i := 0; i < maxIter; i++ {
		mid := geomMid(lo, hi)
		tuned := c.WithBound(mid)
		buf, err := tuned.Compress(data, dims)
		if err != nil {
			return nil, 0, err
		}
		achieved = ratio(data, buf)
		best = tuned
		tooHigh, tooLow := achieved > target*(1+tol), achieved < target*(1-tol)
		if !tooHigh && !tooLow {
			return tuned, achieved, nil
		}
		if tooHigh != falls {
			hi = mid // too lossy: tighten the bound
		} else {
			lo = mid
		}
	}
	return best, achieved, nil
}

func ratio(data []float64, buf []byte) float64 {
	return float64(len(data)*8) / float64(len(buf))
}

func geomMid(lo, hi float64) float64 {
	// Geometric midpoint suits the many-decades search space.
	m := lo * hi
	if m <= 0 {
		return (lo + hi) / 2
	}
	return math.Sqrt(m)
}
