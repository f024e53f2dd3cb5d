package hamming_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
)

// A code describes nothing about itself: names, overheads and
// capabilities are core.Config's. These tests hold that description of
// the Hamming and SEC-DED configurations to the codes it builds.

var (
	hamming8  = core.Config{Method: ecc.MethodHamming, Param: 8}
	hamming64 = core.Config{Method: ecc.MethodHamming, Param: 64}
	secded8   = core.Config{Method: ecc.MethodSECDED, Param: 8}
	secded64  = core.Config{Method: ecc.MethodSECDED, Param: 64}
)

func build(t *testing.T, cfg core.Config) *hamming.Code {
	t.Helper()
	c, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := c.(*hamming.Code)
	if !ok {
		t.Fatalf("%s builds a %T", cfg, c)
	}
	return h
}

// checkOverhead requires cfg's declared overhead to be what its code
// stores over n bytes, a whole number of eight-block steps (no padding).
func checkOverhead(t *testing.T, cfg core.Config, want float64) {
	t.Helper()
	const n = 4096
	c := build(t, cfg)
	if got := cfg.Overhead(); got != want {
		t.Fatalf("%s: Config.Overhead() = %v, want %v", cfg, got, want)
	}
	if got := float64(c.EncodedSize(n)-n) / n; got != want {
		t.Fatalf("%s: code stores %v overhead, want %v", cfg, got, want)
	}
}

func TestName(t *testing.T) {
	for _, tc := range []struct {
		cfg      core.Config
		name     string
		extended bool
	}{
		{hamming8, "hamming8", false},
		{hamming64, "hamming64", false},
		{secded8, "secded8", true},
		{secded64, "secded64", true},
	} {
		if got := tc.cfg.String(); got != tc.name {
			t.Fatalf("name %q, want %q", got, tc.name)
		}
		if c := build(t, tc.cfg); c.P.K != tc.cfg.Param || c.P.Extended != tc.extended {
			t.Fatalf("%s builds k=%d extended=%v", tc.name, c.P.K, c.P.Extended)
		}
	}
}

func TestOverhead(t *testing.T) {
	checkOverhead(t, hamming8, 0.5)
	checkOverhead(t, hamming64, 7.0/64.0)
}

func TestNameAndOverhead(t *testing.T) {
	if secded8.String() != "secded8" || secded64.String() != "secded64" {
		t.Fatalf("names %q, %q", secded8, secded64)
	}
	checkOverhead(t, secded8, 5.0/8.0)
	checkOverhead(t, secded64, 0.125) // the (72,64) code
}

func TestCaps(t *testing.T) {
	caps := secded64.Caps()
	if !caps.Has(ecc.CorrectSparse) || !caps.Has(ecc.DetectSparse) {
		t.Fatal("secded must detect and correct sparse errors")
	}
	if caps.Has(ecc.CorrectBurst) {
		t.Fatal("secded must not claim burst correction")
	}
}
