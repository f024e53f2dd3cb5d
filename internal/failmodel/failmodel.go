// Package failmodel encodes the DRAM failure-rate model the paper uses
// in its ease-of-use evaluation (Section 6.4), parameterized with the
// published findings of Sridharan et al. on the Cielo and Hopper
// supercomputers. It converts per-system fault rates into a mean time
// between failures and recommends ARC resiliency constraints from the
// observed fault-type mix.
package failmodel

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ecc"
)

// System describes an HPC system's published memory-fault profile.
type System struct {
	Name  string
	Nodes int
	// AltitudeFeet drives the relative neutron-flux note in reports
	// (Sridharan et al. attribute Cielo's higher rate to altitude).
	AltitudeFeet int
	// SoftErrorsPerNodePerDay is the per-node rate of detected soft
	// errors, calibrated so the whole system reproduces the paper's
	// MTBF (Cielo: a failure every 1.9 days across 8,500 nodes).
	SoftErrorsPerNodePerDay float64
	// SoftErrorFraction is the share of all faults that are soft
	// errors (Cielo 34.9%, Hopper 42.1%).
	SoftErrorFraction float64
	// SingleBitFraction is the share of faults caused by single-bit
	// errors (Cielo 70.79%, Hopper 94.6%).
	SingleBitFraction float64
	// BurstFraction is the share of multi-bit faults that appear as
	// bursts within one DRAM device (paper: most of Cielo's multi-bit
	// faults; 4.05% on Hopper).
	BurstFraction float64
}

// Cielo returns the Cielo profile: 8,500 nodes at ~7,300 ft in Los
// Alamos; the paper derives one soft-error failure every 1.9 days.
func Cielo() System {
	return System{
		Name:         "Cielo",
		Nodes:        8500,
		AltitudeFeet: 7300,
		// Rate calibrated to the paper's MTBF: 1/(8500 * r) = 1.9 days.
		SoftErrorsPerNodePerDay: 1.0 / (1.9 * 8500),
		SoftErrorFraction:       0.349,
		SingleBitFraction:       0.7079,
		BurstFraction:           0.80,
	}
}

// Hopper returns the Hopper profile: 6,000 nodes at 43 ft in Oakland;
// the paper derives one soft-error failure every 5.43 days.
func Hopper() System {
	return System{
		Name:                    "Hopper",
		Nodes:                   6000,
		AltitudeFeet:            43,
		SoftErrorsPerNodePerDay: 1.0 / (5.43 * 6000),
		SoftErrorFraction:       0.421,
		SingleBitFraction:       0.946,
		BurstFraction:           0.0405,
	}
}

// MTBFDays returns the system-wide mean time between soft-error
// failures in days.
func (s System) MTBFDays() float64 {
	rate := float64(s.Nodes) * s.SoftErrorsPerNodePerDay
	if rate <= 0 {
		return math.Inf(1)
	}
	return 1 / rate
}

// MultiBitFraction is the share of faults that are not single-bit.
func (s System) MultiBitFraction() float64 { return 1 - s.SingleBitFraction }

// Recommendation is the constraint advice derived from a system
// profile (the paper's Section 6.4 guidance).
type Recommendation struct {
	System System
	// Resiliency is the suggested ARC resiliency constraint.
	Resiliency core.Resiliency
	// Config is the concrete configuration the constraint selects
	// under no storage/throughput pressure.
	Config core.Config
	// Rationale explains the choice in the paper's terms.
	Rationale string
}

// Recommend maps a system profile to an ARC resiliency constraint:
// systems with high failure rates and substantial multi-bit/burst
// shares need Reed-Solomon (ARC_COR_BURST); low-rate, overwhelmingly
// single-bit systems are served by SEC-DED (ARC_COR_SPARSE).
func Recommend(s System) Recommendation {
	multiBit := s.MultiBitFraction()
	burstHeavy := multiBit > 0.15 && s.BurstFraction > 0.5
	if burstHeavy {
		res := core.Resiliency{Caps: ecc.CorrectBurst}
		return Recommendation{
			System:     s,
			Resiliency: res,
			Config:     core.Config{Method: ecc.MethodReedSolomon, Param: 15},
			Rationale: fmt.Sprintf(
				"%s fails every %.1f days and %.1f%% of faults are multi-bit (mostly bursts within one DRAM device): use ARC_COR_BURST so ARC applies Reed-Solomon.",
				s.Name, s.MTBFDays(), 100*multiBit),
		}
	}
	res := core.Resiliency{Caps: ecc.CorrectSparse}
	return Recommendation{
		System:     s,
		Resiliency: res,
		Config:     core.MinimalAdequateConfig(1),
		Rationale: fmt.Sprintf(
			"%s fails every %.1f days and %.1f%% of faults are single-bit: ARC_COR_SPARSE (SEC-DED) corrects them with ~12.5%% overhead.",
			s.Name, s.MTBFDays(), 100*s.SingleBitFraction),
	}
}
