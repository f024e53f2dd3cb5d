package hamming_test

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
	"repro/internal/raceflag"
)

// TestSECDEDEncodeToAllocFree pins the steady-state contract for the
// hottest ECC configuration: SEC-DED(72,64) EncodeTo/DecodeTo with a
// reused dst and scratch allocate nothing after warm-up.
func TestSECDEDEncodeToAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	c := hamming.NewSECDED(64, 1)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 17)
	}
	var s ecc.Scratch
	dst := make([]byte, c.EncodedSize(len(data)))
	ddst := make([]byte, len(data))
	enc, _ := c.EncodeTo(dst, data, &s)
	if avg := testing.AllocsPerRun(100, func() { c.EncodeTo(dst, data, &s) }); avg != 0 {
		t.Errorf("EncodeTo allocates %.2f allocs/op, want 0", avg)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, _, err := c.DecodeTo(ddst, enc, len(data), &s); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("DecodeTo allocates %.2f allocs/op, want 0", avg)
	}
}
