package core

import (
	"math"
	"testing"

	"repro/internal/ecc"
)

func TestAllConfigsSortedAndBuildable(t *testing.T) {
	cs := AllConfigs()
	if len(cs) < 15 {
		t.Fatalf("only %d configurations; expected a rich space", len(cs))
	}
	prev := -1.0
	for _, c := range cs {
		if c.Overhead() < prev {
			t.Fatalf("configs not sorted by overhead at %s", c)
		}
		prev = c.Overhead()
		code, err := c.Build(1)
		if err != nil {
			t.Fatalf("%s: build: %v", c, err)
		}
		// The declared overhead is what the code stores, at a length
		// with no padding: whole parity bytes, Hamming steps and
		// interleaver rows at 64 KiB, one whole default stripe for RS.
		n := 64 << 10
		if c.Method == ecc.MethodReedSolomon {
			n = (rsTotalDevices - c.Param) * rsDeviceSize
		}
		stored := float64(code.EncodedSize(n)-n) / float64(n)
		if diff := stored - c.Overhead(); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("%s: declares overhead %v, stores %v over %d bytes", c, c.Overhead(), stored, n)
		}
	}
}

// TestConfigStringRoundTrip holds names to one configuration each: the
// training table is keyed by Config.String.
func TestConfigStringRoundTrip(t *testing.T) {
	seen := make(map[string]Config)
	for _, c := range AllConfigs() {
		if prev, ok := seen[c.String()]; ok {
			t.Fatalf("methods %d/%d and %d/%d share the name %q", prev.Method, prev.Param, c.Method, c.Param, c.String())
		}
		seen[c.String()] = c
	}
}

func TestConfigCaps(t *testing.T) {
	if !(Config{ecc.MethodParity, 8}).Caps().Has(ecc.DetectSparse) {
		t.Fatal("parity detects")
	}
	if (Config{ecc.MethodParity, 8}).Caps().Has(ecc.CorrectSparse) {
		t.Fatal("parity must not correct")
	}
	if !(Config{ecc.MethodSECDED, 64}).Caps().Has(ecc.CorrectSparse) {
		t.Fatal("secded corrects sparse")
	}
	if (Config{ecc.MethodSECDED, 64}).Caps().Has(ecc.CorrectBurst) {
		t.Fatal("secded must not claim burst")
	}
	if !(Config{ecc.MethodReedSolomon, 15}).Caps().Has(ecc.CorrectBurst) {
		t.Fatal("RS corrects bursts")
	}
}

func TestBuildInvalid(t *testing.T) {
	bad := []Config{
		{ecc.MethodParity, 0},
		{ecc.MethodHamming, 16},
		{ecc.MethodSECDED, 7},
		{ecc.MethodReedSolomon, 0},
		{ecc.MethodReedSolomon, 256},
		{ecc.Method(99), 1},
	}
	for _, c := range bad {
		if _, err := c.Build(1); err == nil {
			t.Fatalf("%v must fail to build", c)
		}
	}
}

func TestOverheadSpansWideRange(t *testing.T) {
	cs := AllConfigs()
	lo := cs[0].Overhead()
	hi := cs[len(cs)-1].Overhead()
	if lo > 0.01 {
		t.Fatalf("cheapest config overhead %.4f; expected sub-1%%", lo)
	}
	if hi < 0.8 {
		t.Fatalf("richest config overhead %.4f; expected ~1.0 (paper's 103-device RS)", hi)
	}
}

func TestMethodsForErrorRate(t *testing.T) {
	has := func(ms []ecc.Method, m ecc.Method) bool {
		for _, x := range ms {
			if x == m {
				return true
			}
		}
		return false
	}
	all := MethodsForErrorRate(0)
	if len(all) != 4 {
		t.Fatal("rate 0 must allow everything")
	}
	low := MethodsForErrorRate(1)
	if has(low, ecc.MethodParity) {
		t.Fatal("correcting 1 err/MB excludes parity (detect-only)")
	}
	if has(low, ecc.MethodHamming) {
		t.Fatal("correction guarantees exclude Hamming (silent double miscorrection)")
	}
	if !has(low, ecc.MethodSECDED) {
		t.Fatal("1 err/MB allows SEC-DED")
	}
	mid := MethodsForErrorRate(100)
	if !has(mid, ecc.MethodSECDED) {
		t.Fatal("moderate rates allow SEC-DED")
	}
	// The paper's "over a sixteenth of each MB" burst regime: RS only.
	high := MethodsForErrorRate(65536)
	if len(high) != 1 || high[0] != ecc.MethodReedSolomon {
		t.Fatalf("dense rates must be RS-only, got %v", high)
	}
}

func TestMinimalAdequateConfig(t *testing.T) {
	// Paper Section 6.3: 1 err/MB => SEC-DED over 8-byte blocks.
	if got := MinimalAdequateConfig(1); got != (Config{ecc.MethodSECDED, 64}) {
		t.Fatalf("1 err/MB -> %s, want secded64", got)
	}
	// Dense regimes escalate to RS with growing code-device counts.
	dense := MinimalAdequateConfig(5000)
	if dense.Method != ecc.MethodReedSolomon {
		t.Fatalf("dense rate -> %s, want RS", dense)
	}
	denser := MinimalAdequateConfig(500000)
	if denser.Method != ecc.MethodReedSolomon || denser.Param < dense.Param {
		t.Fatalf("denser rates need more code devices: %s vs %s", denser, dense)
	}
}

func TestPaperRSConfigsPresent(t *testing.T) {
	// The configurations the paper reports: 15 and 103 code devices.
	found15, found103 := false, false
	for _, c := range AllConfigs() {
		if c.Method == ecc.MethodReedSolomon {
			if c.Param == 15 {
				found15 = true
			}
			if c.Param == 103 {
				found103 = true
			}
		}
	}
	if !found15 || !found103 {
		t.Fatal("paper's RS configurations (m=15, m=103) must be in the space")
	}
}

// TestConfigSpacePinned lists ARC's built-in configuration space as
// AllConfigs returns it: the order, each configuration's name (the
// training-table key), the exact bits of its overhead (the optimizer's
// input) and its capabilities.
func TestConfigSpacePinned(t *testing.T) {
	const (
		det   = ecc.DetectSparse
		cor   = det | ecc.CorrectSparse
		burst = cor | ecc.CorrectBurst
	)
	par, ham, sec := ecc.MethodParity, ecc.MethodHamming, ecc.MethodSECDED
	rs, il := ecc.MethodReedSolomon, ecc.MethodInterleavedSECDED
	want := []struct {
		c        Config
		name     string
		overhead uint64
		caps     ecc.Capability
	}{
		{Config{par, 64}, "parity64", 0x3f60000000000000, det},
		{Config{par, 32}, "parity32", 0x3f70000000000000, det},
		{Config{par, 16}, "parity16", 0x3f80000000000000, det},
		{Config{rs, 1}, "rs-m1", 0x3f80101010101010, burst},
		{Config{rs, 2}, "rs-m2", 0x3f883060c183060c, burst},
		{Config{par, 8}, "parity8", 0x3f90000000000000, det},
		{Config{rs, 4}, "rs-m4", 0x3f94514514514514, burst},
		{Config{par, 4}, "parity4", 0x3fa0000000000000, det},
		{Config{rs, 8}, "rs-m8", 0x3fa294a5294a5295, burst},
		{Config{par, 2}, "parity2", 0x3fb0000000000000, det},
		{Config{rs, 15}, "rs-m15", 0x3fb0fef010fef011, burst},
		{Config{rs, 24}, "rs-m24", 0x3fbb9611a7b9611a, burst},
		{Config{ham, 64}, "hamming64", 0x3fbc000000000000, cor},
		{Config{il, 1024}, "ilsecded1024", 0x3fc0000000000000, burst},
		{Config{il, 256}, "ilsecded256", 0x3fc0000000000000, burst},
		{Config{il, 64}, "ilsecded64", 0x3fc0000000000000, burst},
		{Config{par, 1}, "parity1", 0x3fc0000000000000, det},
		{Config{sec, 64}, "secded64", 0x3fc0000000000000, cor},
		{Config{rs, 32}, "rs-m32", 0x3fc2db6db6db6db7, burst},
		{Config{rs, 51}, "rs-m51", 0x3fd03bf103bf103c, burst},
		{Config{rs, 64}, "rs-m64", 0x3fd5aaaaaaaaaaab, burst},
		{Config{rs, 80}, "rs-m80", 0x3fdd745d1745d174, burst},
		{Config{ham, 8}, "hamming8", 0x3fe0000000000000, cor},
		{Config{sec, 8}, "secded8", 0x3fe4000000000000, cor},
		{Config{rs, 103}, "rs-m103", 0x3fe5c06b15c06b16, burst},
		{Config{rs, 128}, "rs-m128", 0x3ff0200000000000, burst},
	}
	got := AllConfigs()
	if len(got) != len(want) {
		t.Fatalf("AllConfigs has %d configurations, want %d", len(got), len(want))
	}
	for i, w := range want {
		c := got[i]
		if c != w.c || c.String() != w.name || math.Float64bits(c.Overhead()) != w.overhead || c.Caps() != w.caps {
			t.Errorf("AllConfigs()[%d] = %v %q %#016x %s, want %v %q %#016x %s", i,
				c, c, math.Float64bits(c.Overhead()), c.Caps(), w.c, w.name, w.overhead, w.caps)
		}
	}

	// A built-in family cannot be unregistered.
	UnregisterCustomMethod(ecc.MethodSECDED)
	if _, err := (Config{sec, 64}).Build(1); err != nil {
		t.Fatalf("secded64 after UnregisterCustomMethod(MethodSECDED): %v", err)
	}
}

// TestDeviceSizeForRSM15 pins the Reed-Solomon device sizes the chunk
// codec's traffic runs at under rs-m15 (241 data devices): a 64 KiB
// payload, every arcd ENCODE/DECODE request of the service benchmark,
// takes 272-byte devices (8·32 + 16), a chunk that does not fill its
// last stripe (here the last chunk of a 2 214 678-byte file) 1022-byte
// ones, and a 4 MiB chunk the full 1024.
func TestDeviceSizeForRSM15(t *testing.T) {
	cfg := Config{Method: ecc.MethodReedSolomon, Param: 15}
	for _, tc := range []struct{ n, want int }{
		{64 << 10, 272},
		{2_214_678, 1022},
		{4 << 20, 1024},
	} {
		if got := cfg.DeviceSizeFor(tc.n); got != tc.want {
			t.Errorf("DeviceSizeFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
