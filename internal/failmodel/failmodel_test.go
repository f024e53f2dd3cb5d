package failmodel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ecc"
)

func TestSec64FailureModel(t *testing.T) {
	// The paper's headline numbers: Cielo fails every 1.9 days, Hopper
	// every 5.43 days.
	if m := Cielo().MTBFDays(); math.Abs(m-1.9) > 1e-9 {
		t.Fatalf("Cielo MTBF %.3f days, want 1.9", m)
	}
	if m := Hopper().MTBFDays(); math.Abs(m-5.43) > 1e-9 {
		t.Fatalf("Hopper MTBF %.3f days, want 5.43", m)
	}
}

func TestFaultMixMatchesPaper(t *testing.T) {
	c, h := Cielo(), Hopper()
	if math.Abs(c.SingleBitFraction-0.7079) > 1e-9 {
		t.Fatal("Cielo single-bit fraction")
	}
	if math.Abs(h.SingleBitFraction-0.946) > 1e-9 {
		t.Fatal("Hopper single-bit fraction")
	}
	if math.Abs(c.MultiBitFraction()-0.2921) > 1e-9 {
		t.Fatalf("Cielo multi-bit fraction %.4f, want 0.2921 (paper)", c.MultiBitFraction())
	}
	if c.SoftErrorFraction != 0.349 || h.SoftErrorFraction != 0.421 {
		t.Fatal("soft-error fractions must match Sridharan et al.")
	}
}

func TestCieloNeedsBurstProtection(t *testing.T) {
	rec := Recommend(Cielo())
	if !rec.Resiliency.Caps.Has(ecc.CorrectBurst) {
		t.Fatal("Cielo must be advised ARC_COR_BURST (paper Section 6.4)")
	}
	if rec.Config.Method != ecc.MethodReedSolomon {
		t.Fatalf("Cielo config %s, want Reed-Solomon", rec.Config)
	}
	if !strings.Contains(rec.Rationale, "Cielo") {
		t.Fatal("rationale must name the system")
	}
}

func TestHopperNeedsOnlySparseCorrection(t *testing.T) {
	rec := Recommend(Hopper())
	if rec.Resiliency.Caps.Has(ecc.CorrectBurst) {
		t.Fatal("Hopper does not need burst protection (94.6% single-bit)")
	}
	if !rec.Resiliency.Caps.Has(ecc.CorrectSparse) {
		t.Fatal("Hopper needs sparse correction")
	}
	if rec.Config.Method != ecc.MethodSECDED {
		t.Fatalf("Hopper config %s, want SEC-DED", rec.Config)
	}
}

func TestAltitudeRelationship(t *testing.T) {
	// Sridharan et al. attribute Cielo's ~2x rate to altitude; the
	// profiles must preserve both orderings.
	c, h := Cielo(), Hopper()
	if c.AltitudeFeet <= h.AltitudeFeet {
		t.Fatal("Cielo sits higher than Hopper")
	}
	if c.MTBFDays() >= h.MTBFDays() {
		t.Fatal("Cielo must fail more often than Hopper")
	}
	ratio := h.MTBFDays() / c.MTBFDays()
	if ratio < 2 || ratio > 3.5 {
		t.Fatalf("failure-rate ratio %.2f outside the paper's ~2x-3x", ratio)
	}
}

func TestInfiniteMTBFForIdleSystem(t *testing.T) {
	s := System{Name: "idle", Nodes: 0, SoftErrorsPerNodePerDay: 0}
	if !math.IsInf(s.MTBFDays(), 1) {
		t.Fatal("zero rate must give infinite MTBF")
	}
}
