package core

import (
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

func TestConfigStringRoundTrip(t *testing.T) {
	for _, c := range AllConfigs() {
		got, err := ParseConfig(c.String())
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if got != c {
			t.Fatalf("round trip %s -> %s", c, got)
		}
	}
	if _, err := ParseConfig("nonsense"); err == nil {
		t.Fatal("bad name must fail")
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
