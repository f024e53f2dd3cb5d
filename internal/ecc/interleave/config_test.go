package interleave_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
)

// A code describes nothing about itself: capabilities and overheads are
// core.Config's. This test holds that description of the interleaved
// configurations to the codes it builds.

func TestCapsGainBurst(t *testing.T) {
	il := core.Config{Method: ecc.MethodInterleavedSECDED, Param: 64}
	plain := core.Config{Method: ecc.MethodSECDED, Param: 64}
	if !il.Caps().Has(ecc.CorrectBurst) {
		t.Fatal("interleaved secded must claim burst correction")
	}
	if !il.Caps().Has(ecc.CorrectSparse) {
		t.Fatal("inner caps must be preserved")
	}
	// Overhead must equal the inner code's (pure permutation), in the
	// description and in the bytes: 4096 codewords fill whole rows.
	if il.Overhead() != plain.Overhead() {
		t.Fatal("interleaving must not change overhead")
	}
	ilc, err := il.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	plainc, err := plain.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := 4096 * 8; ilc.EncodedSize(n) != plainc.EncodedSize(n) {
		t.Fatalf("interleaving stores %d bytes for %d, SEC-DED %d", ilc.EncodedSize(n), n, plainc.EncodedSize(n))
	}
}
