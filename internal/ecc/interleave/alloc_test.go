package interleave_test

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/ecc/interleave"
	"repro/internal/raceflag"
)

// TestEncodeToAllocFree pins interleaved SEC-DED's one-worker pass at
// zero allocations once its Scratch is warm: EncodeTo and DecodeTo
// into kept buffers, the inner SEC-DED through ecc.Split's inline call.
func TestEncodeToAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	c, err := interleave.NewSECDED(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10+5)
	for i := range data {
		data[i] = byte(i * 31)
	}
	var s ecc.Scratch
	dst := make([]byte, c.EncodedSize(len(data)))
	ddst := make([]byte, len(data))
	enc, _ := c.EncodeTo(dst, data, &s)
	if _, _, _, err := c.DecodeTo(ddst, enc, len(data), &s); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { c.EncodeTo(dst, data, &s) }); avg != 0 {
		t.Errorf("EncodeTo allocates %.2f allocs/op, want 0", avg)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, _, _, err := c.DecodeTo(ddst, enc, len(data), &s); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("DecodeTo allocates %.2f allocs/op, want 0", avg)
	}
}
