package parity_test

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/ecc/parity"
	"repro/internal/raceflag"
)

// TestEncodeToAllocFree pins the one-worker pass, the inline call
// ecc.Split makes, at zero allocations: EncodeTo and DecodeTo into
// kept buffers, for the 8-byte blocks the AVX2 kernel takes and for
// 3-byte blocks, which it does not.
func TestEncodeToAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	data := make([]byte, 64<<10+5)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for _, bb := range []int{8, 3} {
		c := parity.New(bb, 1)
		dst := make([]byte, c.EncodedSize(len(data)))
		ddst := make([]byte, len(data))
		enc, _ := c.EncodeTo(dst, data, nil)
		if avg := testing.AllocsPerRun(100, func() { c.EncodeTo(dst, data, nil) }); avg != 0 {
			t.Errorf("parity%d EncodeTo allocates %.2f allocs/op, want 0", bb, avg)
		}
		var s ecc.Scratch
		avg := testing.AllocsPerRun(100, func() {
			if _, _, _, err := c.DecodeTo(ddst, enc, len(data), &s); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("parity%d DecodeTo allocates %.2f allocs/op, want 0", bb, avg)
		}
	}
}
