package parity_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/parity"
)

// A code describes nothing about itself: names, overheads and
// capabilities are core.Config's. These tests hold that description of
// the parity configurations to the codes it builds.

func TestOverheadMatchesActual(t *testing.T) {
	for _, bb := range []int{1, 4, 8, 32} {
		cfg := core.Config{Method: ecc.MethodParity, Param: bb}
		c, err := cfg.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 << 16
		actual := float64(c.EncodedSize(n)-n) / float64(n)
		if actual != cfg.Overhead() {
			t.Fatalf("%s: Config.Overhead()=%f actual=%f", cfg, cfg.Overhead(), actual)
		}
	}
}

func TestName(t *testing.T) {
	cfg := core.Config{Method: ecc.MethodParity, Param: 8}
	if cfg.String() != "parity8" {
		t.Fatalf("unexpected name %q", cfg)
	}
	if c, err := cfg.Build(1); err != nil || c.(*parity.Code).BlockBytes != 8 {
		t.Fatalf("parity8 builds %#v, %v", c, err)
	}
	if !cfg.Caps().Has(ecc.DetectSparse) {
		t.Fatal("parity must report DetectSparse")
	}
	if cfg.Caps().Has(ecc.CorrectSparse) {
		t.Fatal("parity must not claim correction")
	}
}
