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
	"sync"

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
func (c Config) String() string { return family(c.Method).configName(c.Param) }

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
func (c Config) BuildWithDeviceSize(workers, devSize int) (ecc.Code, error) {
	if devSize <= 0 {
		devSize = rsDeviceSize
	}
	return family(c.Method).Build(c.Param, workers, devSize)
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
func (c Config) Overhead() float64 { return family(c.Method).Overhead(c.Param) }

// Caps returns the configuration's error-response capabilities.
func (c Config) Caps() ecc.Capability { return family(c.Method).Caps }

// rsCodeDevices is the Reed-Solomon parameter grid.
var rsCodeDevices = []int{1, 2, 4, 8, 15, 24, 32, 51, 64, 80, 103, 128}

// methods is the configuration space as one record per ECC family:
// ARC's five built-ins, and the families RegisterCustomMethod adds.
var (
	methodsMu sync.RWMutex
	methods   = map[ecc.Method]CustomMethod{
		ecc.MethodParity: {ID: ecc.MethodParity, Name: "parity", Params: []int{1, 2, 4, 8, 16, 32, 64},
			Overhead: func(block int) float64 { return 1.0 / (8.0 * float64(block)) },
			Caps:     ecc.DetectSparse,
			Build: func(block, workers, _ int) (ecc.Code, error) {
				if block <= 0 {
					return nil, fmt.Errorf("core: invalid parity block %d", block)
				}
				return parity.New(block, workers), nil
			}},
		ecc.MethodHamming: hammingFamily(ecc.MethodHamming, "hamming", 4.0/8.0, 7.0/64.0, hamming.New),
		ecc.MethodSECDED:  hammingFamily(ecc.MethodSECDED, "secded", 5.0/8.0, 8.0/64.0, hamming.NewSECDED),
		ecc.MethodReedSolomon: {ID: ecc.MethodReedSolomon, Name: "rs-m", Params: rsCodeDevices,
			Overhead: func(m int) float64 {
				k := rsTotalDevices - m
				return (float64(m)*rsDeviceSize + float64(rsTotalDevices)*4) / (float64(k) * rsDeviceSize)
			},
			Caps: ecc.DetectSparse | ecc.CorrectSparse | ecc.CorrectBurst,
			Build: func(m, workers, devSize int) (ecc.Code, error) {
				if m <= 0 || m >= rsTotalDevices {
					return nil, fmt.Errorf("core: invalid RS code devices %d", m)
				}
				return reedsolomon.New(rsTotalDevices-m, m, devSize, workers)
			}},
		ecc.MethodInterleavedSECDED: {ID: ecc.MethodInterleavedSECDED, Name: "ilsecded", Params: []int{64, 256, 1024},
			Overhead: func(int) float64 { return 9.0/8.0 - 1.0 }, // SEC-DED(72,64) grouping: 9 bytes per 8
			Caps:     ecc.DetectSparse | ecc.CorrectSparse | ecc.CorrectBurst,
			Build:    func(depth, workers, _ int) (ecc.Code, error) { return interleave.NewSECDED(depth, workers) }},
	}
)

// hammingFamily describes a Hamming-style family: codes over 8- or
// 64-bit data words, storing overhead w8 or w64.
func hammingFamily(id ecc.Method, name string, w8, w64 float64, newCode func(width, workers int) *hamming.Code) CustomMethod {
	return CustomMethod{ID: id, Name: name, Params: []int{8, 64}, Caps: ecc.DetectSparse | ecc.CorrectSparse,
		Overhead: func(width int) float64 {
			if width == 8 {
				return w8
			}
			return w64
		},
		Build: func(width, workers, _ int) (ecc.Code, error) {
			if width != 8 && width != 64 {
				return nil, fmt.Errorf("core: invalid %s width %d", name, width)
			}
			return newCode(width, workers), nil
		}}
}

// family returns the record of a method id's family. An id outside the
// table gets one that names its configurations "unknown-<id>-<param>",
// costs and offers nothing, and refuses to build.
func family(id ecc.Method) CustomMethod {
	methodsMu.RLock()
	m, ok := methods[id]
	methodsMu.RUnlock()
	if !ok {
		m = CustomMethod{ID: id, Name: fmt.Sprintf("unknown-%d-", id), Overhead: func(int) float64 { return 0 },
			Build: func(int, int, int) (ecc.Code, error) { return nil, fmt.Errorf("core: unknown method %d", id) }}
	}
	return m
}

// AllConfigs enumerates ARC's full configuration space, sorted by
// ascending storage overhead.
func AllConfigs() []Config {
	var cs []Config
	methodsMu.RLock()
	for id, m := range methods {
		for _, p := range m.Params {
			cs = append(cs, Config{id, p})
		}
	}
	methodsMu.RUnlock()
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
