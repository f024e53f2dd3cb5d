package reedsolomon_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/reedsolomon"
)

// A code describes nothing about itself: names, overheads and
// capabilities are core.Config's. These tests hold that description of
// the Reed-Solomon configurations to the codes it builds.

var rsM15 = core.Config{Method: ecc.MethodReedSolomon, Param: 15}

func TestOverheadMatchesActual(t *testing.T) {
	c, err := rsM15.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	n := 241 * reedsolomon.DefaultDeviceSize * 4 // whole stripes so padding doesn't skew
	actual := float64(c.EncodedSize(n)-n) / float64(n)
	if math.Abs(actual-rsM15.Overhead()) > 1e-9 {
		t.Fatalf("Config.Overhead()=%f actual=%f", rsM15.Overhead(), actual)
	}
}

func TestNameCaps(t *testing.T) {
	if rsM15.String() != "rs-m15" {
		t.Fatalf("name %q", rsM15)
	}
	c, err := rsM15.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if rs := c.(*reedsolomon.Code); rs.K != 241 || rs.M != 15 {
		t.Fatalf("rs-m15 builds %d+%d, want the paper's 241+15", rs.K, rs.M)
	}
	if !rsM15.Caps().Has(ecc.CorrectBurst) {
		t.Fatal("RS must claim burst correction")
	}
}
