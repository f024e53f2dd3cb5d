// Package core implements the paper's primary contribution: the ARC
// engine. It enumerates the ECC configuration space, trains per-thread
// throughput models (with a persistent cache), optimizes configuration
// choice under user constraints on storage, throughput, and resiliency,
// and wraps encoded data in a self-describing container.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
	"repro/internal/ecc/interleave"
	"repro/internal/ecc/parity"
	"repro/internal/ecc/reedsolomon"
)

// Config identifies one ECC configuration in ARC's search space.
type Config struct {
	Method ecc.Method
	// Param is method-specific: parity block bytes, Hamming/SEC-DED
	// data width in bits (8 or 64), or Reed-Solomon code devices m
	// (with k = 256 - m data devices).
	Param int
}

// String returns a stable identifier, e.g. "parity8" or "rs-m15".
func (c Config) String() string {
	switch c.Method {
	case ecc.MethodParity:
		return fmt.Sprintf("parity%d", c.Param)
	case ecc.MethodHamming:
		return fmt.Sprintf("hamming%d", c.Param)
	case ecc.MethodSECDED:
		return fmt.Sprintf("secded%d", c.Param)
	case ecc.MethodReedSolomon:
		return fmt.Sprintf("rs-m%d", c.Param)
	case ecc.MethodInterleavedSECDED:
		return fmt.Sprintf("ilsecded%d", c.Param)
	default:
		if m, ok := lookupCustom(c.Method); ok {
			return fmt.Sprintf("%s%d", m.Name, c.Param)
		}
		return fmt.Sprintf("unknown-%d-%d", c.Method, c.Param)
	}
}

// rsTotalDevices fixes k+m for the Reed-Solomon family at the field
// order, matching the paper's observed configurations (241+15 under a
// 0.2 budget, 153+103 under 0.9).
const rsTotalDevices = 256

// rsDeviceSize is the bytes per Reed-Solomon device.
const rsDeviceSize = 1024

// Build constructs the ecc.Code for this configuration with the given
// worker count and the default Reed-Solomon device size.
func (c Config) Build(workers int) (ecc.Code, error) {
	return c.BuildWithDeviceSize(workers, rsDeviceSize)
}

// BuildWithDeviceSize is Build with an explicit Reed-Solomon device
// size (ignored by the other methods). The engine shrinks devices on
// inputs smaller than a full default stripe so padding stays marginal.
// A registered code comes back behind customCode; built-ins never do.
func (c Config) BuildWithDeviceSize(workers, devSize int) (ecc.Code, error) {
	if devSize <= 0 {
		devSize = rsDeviceSize
	}
	switch c.Method {
	case ecc.MethodParity:
		if c.Param <= 0 {
			return nil, fmt.Errorf("core: invalid parity block %d", c.Param)
		}
		return parity.New(c.Param, workers), nil
	case ecc.MethodHamming:
		if c.Param != 8 && c.Param != 64 {
			return nil, fmt.Errorf("core: invalid hamming width %d", c.Param)
		}
		return hamming.New(c.Param, workers), nil
	case ecc.MethodSECDED:
		if c.Param != 8 && c.Param != 64 {
			return nil, fmt.Errorf("core: invalid secded width %d", c.Param)
		}
		return hamming.NewSECDED(c.Param, workers), nil
	case ecc.MethodReedSolomon:
		if c.Param <= 0 || c.Param >= rsTotalDevices {
			return nil, fmt.Errorf("core: invalid RS code devices %d", c.Param)
		}
		return reedsolomon.New(rsTotalDevices-c.Param, c.Param, devSize, workers)
	case ecc.MethodInterleavedSECDED:
		return interleave.NewSECDED(c.Param, workers)
	default:
		if m, ok := lookupCustom(c.Method); ok {
			code, err := m.Build(c.Param, workers, devSize)
			if err != nil {
				return nil, err
			}
			return customCode{code}, nil
		}
		return nil, fmt.Errorf("core: unknown method %d", c.Method)
	}
}

// DeviceSizeFor picks the Reed-Solomon device size for an input of n
// bytes: devices default to rsDeviceSize, shrinking uniformly so the
// final stripe is full and padding never exceeds one device row
// (k bytes). Non-RS configurations always return 0.
func (c Config) DeviceSizeFor(n int) int {
	if c.Method != ecc.MethodReedSolomon {
		return 0
	}
	k := rsTotalDevices - c.Param
	if n <= 0 {
		return 1
	}
	stripes := (n + k*rsDeviceSize - 1) / (k * rsDeviceSize)
	devSize := (n + k*stripes - 1) / (k * stripes)
	if devSize < 1 {
		devSize = 1
	}
	return devSize
}

// Overhead returns the configuration's asymptotic storage overhead
// without building the full code.
func (c Config) Overhead() float64 {
	switch c.Method {
	case ecc.MethodParity:
		return 1.0 / (8.0 * float64(c.Param))
	case ecc.MethodHamming:
		if c.Param == 8 {
			return 4.0 / 8.0
		}
		return 7.0 / 64.0
	case ecc.MethodSECDED:
		if c.Param == 8 {
			return 5.0 / 8.0
		}
		return 8.0 / 64.0
	case ecc.MethodReedSolomon:
		k := rsTotalDevices - c.Param
		return (float64(c.Param)*rsDeviceSize + float64(rsTotalDevices)*4) / (float64(k) * rsDeviceSize)
	case ecc.MethodInterleavedSECDED:
		return 9.0/8.0 - 1.0 // SEC-DED(72,64) grouping: 9 bytes per 8
	default:
		if m, ok := lookupCustom(c.Method); ok {
			return m.Overhead(c.Param)
		}
		return 0
	}
}

// Caps returns the configuration's error-response capabilities.
func (c Config) Caps() ecc.Capability {
	switch c.Method {
	case ecc.MethodParity:
		return ecc.DetectSparse
	case ecc.MethodHamming, ecc.MethodSECDED:
		return ecc.DetectSparse | ecc.CorrectSparse
	case ecc.MethodReedSolomon, ecc.MethodInterleavedSECDED:
		return ecc.DetectSparse | ecc.CorrectSparse | ecc.CorrectBurst
	default:
		if m, ok := lookupCustom(c.Method); ok {
			return m.Caps
		}
		return 0
	}
}

// parityBlocks and rsCodeDevices enumerate the per-method parameter
// grids in ARC's configuration space.
var (
	parityBlocks     = []int{1, 2, 4, 8, 16, 32, 64}
	hammingWidths    = []int{8, 64}
	rsCodeDevices    = []int{1, 2, 4, 8, 15, 24, 32, 51, 64, 80, 103, 128}
	interleaveDepths = []int{64, 256, 1024}
)

// AllConfigs enumerates ARC's full configuration space, sorted by
// ascending storage overhead.
func AllConfigs() []Config {
	var cs []Config
	for _, b := range parityBlocks {
		cs = append(cs, Config{ecc.MethodParity, b})
	}
	for _, w := range hammingWidths {
		cs = append(cs, Config{ecc.MethodHamming, w})
		cs = append(cs, Config{ecc.MethodSECDED, w})
	}
	for _, m := range rsCodeDevices {
		cs = append(cs, Config{ecc.MethodReedSolomon, m})
	}
	for _, d := range interleaveDepths {
		cs = append(cs, Config{ecc.MethodInterleavedSECDED, d})
	}
	cs = append(cs, customConfigs()...)
	sort.Slice(cs, func(i, j int) bool {
		oi, oj := cs[i].Overhead(), cs[j].Overhead()
		if oi != oj {
			return oi < oj
		}
		return cs[i].String() < cs[j].String()
	})
	return cs
}

// secdedCollisionLimit is the errors-per-MB rate up to which SEC-DED's
// one-correction-per-codeword budget is statistically safe: with r
// uniform errors per MB and 2^17 8-byte codewords per MB, the expected
// number of double-hit codewords is ~r^2/2^18, which passes 1 near
// r = 512.
const secdedCollisionLimit = 512

// MethodsForErrorRate maps an expected uniformly distributed soft
// error rate (errors per MB) to the ECC methods able to correct it,
// implementing the paper's resiliency-constraint rate mode: parity
// never corrects; SEC-DED (and Hamming at very low rates) handle
// sparse errors; only Reed-Solomon survives dense/burst regimes (the
// paper's "over a sixteenth of each MB" example).
func MethodsForErrorRate(perMB float64) []ecc.Method {
	switch {
	case perMB <= 0:
		return []ecc.Method{ecc.MethodParity, ecc.MethodHamming, ecc.MethodSECDED, ecc.MethodReedSolomon}
	case perMB <= secdedCollisionLimit:
		// Sparse errors: SEC-DED guarantees correction of a single hit
		// per codeword *and* detection of doubles; plain Hamming would
		// silently miscorrect a double hit, so it never qualifies for a
		// correction guarantee (the paper picks SEC-DED at 1 err/MB).
		return []ecc.Method{ecc.MethodSECDED, ecc.MethodReedSolomon}
	default:
		return []ecc.Method{ecc.MethodReedSolomon}
	}
}

// MinimalAdequateConfig returns the cheapest configuration that
// corrects the expected error rate — ARC's choice when the user gives
// a rate and no storage budget (guarantee mode). For SEC-DED-eligible
// rates that is SEC-DED over 8-byte blocks; denser regimes get the
// smallest Reed-Solomon configuration whose code devices cover several
// times the expected per-stripe hit count.
func MinimalAdequateConfig(perMB float64) Config {
	if slices.Contains(MethodsForErrorRate(perMB), ecc.MethodSECDED) {
		return Config{ecc.MethodSECDED, 64}
	}
	// RS-only regime: expected devices hit per stripe, assuming each
	// error lands in a distinct device (worst case for the budget).
	stripeMB := float64((rsTotalDevices)*rsDeviceSize) / (1 << 20)
	expected := perMB * stripeMB
	need := int(4*expected) + 1 // 4x safety factor
	for _, m := range rsCodeDevices {
		if m >= need {
			return Config{ecc.MethodReedSolomon, m}
		}
	}
	return Config{ecc.MethodReedSolomon, rsCodeDevices[len(rsCodeDevices)-1]}
}
