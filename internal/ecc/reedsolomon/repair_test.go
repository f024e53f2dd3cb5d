package reedsolomon

// Differential tests of the repair path: decodeStripe (e x e solve from
// the surviving parity rows) against decodeStripeRef (K x K inversion),
// on output bytes, Report, error class and "input unchanged".

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/raceflag"
)

// name labels c in failure messages.
func name(c *Code) string { return fmt.Sprintf("rs-k%d-m%d", c.K, c.M) }

// damageDevice makes device dev of stripe st fail its checksum: by
// xoring x (nonzero) into byte off of the device, or with viaCRC by
// xoring it into the device's entry of the checksum table, which leaves
// the device itself healthy.
func damageDevice(c *Code, enc []byte, st, dev, off int, x byte, viaCRC bool) {
	base := st * c.stripeEncBytes()
	if viaCRC {
		enc[base+(c.K+c.M)*c.DeviceSize+dev*c.csBytes()+off%c.csBytes()] ^= x
		return
	}
	enc[base+dev*c.DeviceSize+off%c.DeviceSize] ^= x
}

// diffDecode decodes enc with DecodeTo (poisoned dst, the caller's
// scratch) and with DecodeRef and fails on any difference.
func diffDecode(t testing.TB, c *Code, enc []byte, origLen int, s *ecc.Scratch) ([]byte, ecc.Report, error) {
	t.Helper()
	snapshot := bytes.Clone(enc)
	want, wantRep, wantErr := c.DecodeRef(enc, origLen)
	dst := bytes.Repeat([]byte{0xA5}, origLen)
	got, rep, err := c.DecodeTo(dst, enc, origLen, s)
	if !bytes.Equal(enc, snapshot) {
		t.Fatalf("%s: decode modified its input", name(c))
	}
	if (err == nil) != (wantErr == nil) || errors.Is(err, ecc.ErrUncorrectable) != errors.Is(wantErr, ecc.ErrUncorrectable) {
		t.Fatalf("%s: err %v, reference %v", name(c), err, wantErr)
	}
	if rep != wantRep {
		t.Fatalf("%s: report %+v, reference %+v", name(c), rep, wantRep)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs from the reference decoder (err %v)", name(c), err)
	}
	return got, rep, err
}

// checkRepair runs diffDecode on a stream with nBad damaged devices,
// more than M of them in one stripe if overBudget, and holds the result
// to the plaintext and exact counts.
func checkRepair(t testing.TB, c *Code, enc, data []byte, nBad int, overBudget bool, s *ecc.Scratch) {
	t.Helper()
	got, rep, err := diffDecode(t, c, enc, len(data), s)
	if overBudget {
		if !errors.Is(err, ecc.ErrUncorrectable) || rep.DetectedBlocks != nBad || rep.CorrectedBlocks != 0 {
			t.Fatalf("%s: %d bad devices: report %+v err %v, want ErrUncorrectable", name(c), nBad, rep, err)
		}
		return
	}
	if err != nil || rep.DetectedBlocks != nBad || rep.CorrectedBlocks != nBad {
		t.Fatalf("%s: %d bad devices: report %+v err %v", name(c), nBad, rep, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%s: %d bad devices: repaired output is not the plaintext", name(c), nBad)
	}
}

// TestRepairEveryErasureSet damages every device subset of size <= M+1
// of a 5+3 code, in a full stripe and in the final partial one (where
// device 2 straddles origLen and devices 3 and 4 lie past it), through
// the device bytes and through the checksum table, for both generator
// constructions and both checksum widths.
func TestRepairEveryErasureSet(t *testing.T) {
	const k, m, ds = 5, 3, 8
	data := make([]byte, k*ds+2*ds+3)
	rand.New(rand.NewSource(31)).Read(data)
	vand := mustNew(t, k, m, ds, 1)
	cauchy, err := NewCauchy(k, m, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	var s ecc.Scratch
	for _, base := range []*Code{vand, cauchy} {
		for _, width := range []int{2, 4} {
			c, err := base.WithChecksumBytes(width)
			if err != nil {
				t.Fatal(err)
			}
			clean := c.EncodeTo(nil, data, nil)
			for set := 0; set < 1<<(k+m); set++ {
				nBad := bits.OnesCount(uint(set))
				if nBad > m+1 {
					continue
				}
				for st := 0; st < 2; st++ {
					for _, viaCRC := range []bool{false, true} {
						enc := bytes.Clone(clean)
						for d := 0; d < k+m; d++ {
							if set>>d&1 != 0 {
								damageDevice(c, enc, st, d, set+d, 0x40, viaCRC)
							}
						}
						checkRepair(t, c, enc, data, nBad, nBad > m, &s)
					}
				}
			}
		}
	}
}

// TestRepairPaperCodes covers the configurations the optimizer really
// picks: every e = 1..15 (and 16, over budget) for 241+15 with the bad
// devices all data, all parity (e <= M) and randomly mixed, and 153+103
// at its full budget of 103.
func TestRepairPaperCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var s ecc.Scratch
	run := func(c *Code, data []byte, bad []int) {
		t.Helper()
		enc := c.EncodeTo(nil, data, nil)
		st := rng.Intn(c.stripes(len(data)))
		for _, d := range bad {
			damageDevice(c, enc, st, d, rng.Intn(c.DeviceSize), byte(1+rng.Intn(255)), rng.Intn(4) == 0)
		}
		checkRepair(t, c, enc, data, len(bad), len(bad) > c.M, &s)
	}
	c := mustNew(t, 241, 15, 16, 1)
	data := make([]byte, 241*16+100*16+5) // final stripe ends inside device 100
	rng.Read(data)
	for e := 1; e <= 16; e++ {
		run(c, data, rng.Perm(241)[:e])
		if e <= 15 {
			parity := rng.Perm(15)[:e]
			for i := range parity {
				parity[i] += 241
			}
			run(c, data, parity)
		}
		for trial := 0; trial < 3; trial++ {
			run(c, data, rng.Perm(256)[:e])
		}
	}
	big := mustNew(t, 153, 103, 16, 1)
	data = data[:153*16+40]
	run(big, data, rng.Perm(153)[:103])
	run(big, data, rng.Perm(256)[:103])
	run(big, data, rng.Perm(256)[:104])
}

// TestRepairParallelRanges spreads damage over every stripe of a
// multi-stripe stream so that each worker range of a Workers == 4
// decode solves on its own scratch.
func TestRepairParallelRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c := mustNew(t, 20, 4, 32, 4)
	data := make([]byte, 20*32*9+77)
	rng.Read(data)
	enc := c.EncodeTo(nil, data, nil)
	total := 0
	for st := 0; st < c.stripes(len(data)); st++ {
		n := 1 + st%4
		for _, d := range rng.Perm(24)[:n] {
			damageDevice(c, enc, st, d, rng.Intn(32), 0x81, false)
		}
		total += n
	}
	checkRepair(t, c, enc, data, total, false, nil)
}

// TestParityOnlyDamageIsACopy pins that a stripe whose corrupt devices
// are all parity — smashed, or merely a flipped entry in the checksum
// table — solves nothing: no scratch is asked for (so nothing is
// allocated even without one) and the output is the data region.
func TestParityOnlyDamageIsACopy(t *testing.T) {
	c := mustNew(t, 241, 15, 64, 1)
	data := make([]byte, 241*64)
	rand.New(rand.NewSource(34)).Read(data)
	smashed := c.EncodeTo(nil, data, nil)
	for d := 241; d < 256; d += 2 {
		damageDevice(c, smashed, 0, d, d, 0xFF, false)
	}
	tableOnly := c.EncodeTo(nil, data, nil)
	damageDevice(c, tableOnly, 0, 250, 1, 0x04, true)
	for _, tc := range []struct {
		name   string
		stripe []byte
		bad    int
	}{{"smashed", smashed, 8}, {"table-only", tableOnly, 1}} {
		dst := make([]byte, len(data))
		det, cor, err := c.decodeStripe(tc.stripe, dst, nil)
		want := make([]byte, len(data))
		rdet, rcor, rerr := c.decodeStripeRef(tc.stripe, want)
		if det != tc.bad || cor != tc.bad || err != nil || det != rdet || cor != rcor || rerr != nil {
			t.Fatalf("%s: %d/%d/%v, reference %d/%d/%v, want %d corrected", tc.name, det, cor, err, rdet, rcor, rerr, tc.bad)
		}
		if !bytes.Equal(dst, data) || !bytes.Equal(want, data) {
			t.Fatalf("%s: output is not the plaintext", tc.name)
		}
		if raceflag.Enabled {
			continue // allocation accounting is unreliable under the race detector
		}
		if avg := testing.AllocsPerRun(20, func() {
			if _, _, err := c.decodeStripe(tc.stripe, dst, nil); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: %.1f allocs per stripe, want 0", tc.name, avg)
		}
	}
}

// TestRepairAllocFree pins the repair path's steady state: a chunk-sized
// rs-m15 stream with 7 of 256 devices damaged in every stripe decodes
// with a warm scratch and a kept dst without allocating.
func TestRepairAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(35))
	c := mustNew(t, 241, 15, 1024, 1)
	data := make([]byte, 1<<20)
	rng.Read(data)
	enc := c.EncodeTo(nil, data, nil)
	for st := 0; st < c.stripes(len(data)); st++ {
		for _, d := range rng.Perm(256)[:7] {
			damageDevice(c, enc, st, d, rng.Intn(1024), 0x5A, false)
		}
	}
	var s ecc.Scratch
	dst := make([]byte, len(data))
	decode := func() {
		got, rep, err := c.DecodeTo(dst, enc, len(data), &s)
		if err != nil || rep.CorrectedBlocks != 7*c.stripes(len(data)) || &got[0] != &dst[0] {
			t.Fatalf("report %+v err %v", rep, err)
		}
	}
	decode() // warm the scratch
	if !bytes.Equal(dst, data) {
		t.Fatal("repaired output is not the plaintext")
	}
	if avg := testing.AllocsPerRun(5, decode); avg != 0 {
		t.Errorf("damaged DecodeTo with a warm scratch: %.1f allocs/op, want 0", avg)
	}
}

// FuzzRSRepair is the differential fuzz of the repair path: arbitrary
// code shape, generator construction, checksum width, worker count and
// erasure pattern (over budget, parity-only, mixed, checksum-table-only,
// either side of origLen in the final stripe), decodeStripe against
// decodeStripeRef.
func FuzzRSRepair(f *testing.F) {
	f.Add([]byte("reed-solomon repair"), uint8(4), uint8(2), uint8(3), uint8(0), []byte{0, 1, 9})
	f.Add(bytes.Repeat([]byte{0x3C, 0xA5}, 200), uint8(7), uint8(3), uint8(15), uint8(7), []byte{0, 0, 1, 0, 9, 2, 1, 3, 4, 1, 8, 6})
	f.Add(bytes.Repeat([]byte{7}, 90), uint8(2), uint8(1), uint8(7), uint8(2), []byte{3, 1, 0, 3, 2, 0, 3, 0, 1}) // over budget
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(30), uint8(15), uint8(0), uint8(1), []byte{0, 40, 5, 0, 31, 1})            // parity only
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, k8, m8, ds8, sel uint8, damage []byte) {
		k, m, ds := 1+int(k8)%40, 1+int(m8)%16, 1+int(ds8)%48
		workers := 1
		if sel&4 != 0 {
			workers = 4
		}
		c, err := New(k, m, ds, workers)
		if sel&1 != 0 {
			c, err = NewCauchy(k, m, ds, workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		if sel&2 != 0 {
			if c, err = c.WithChecksumBytes(2); err != nil {
				t.Fatal(err)
			}
		}
		enc := c.EncodeTo(nil, data, nil)
		ns := c.stripes(len(data))
		hit := make(map[[2]int]bool)
		for ; len(damage) >= 3 && ns > 0; damage = damage[3:] {
			st, dev := int(damage[0])%ns, int(damage[1])%(k+m)
			damageDevice(c, enc, st, dev, int(damage[2]>>1), 1<<(damage[2]>>5), damage[2]&1 != 0)
			hit[[2]int{st, dev}] = true
		}
		got, rep, err := diffDecode(t, c, enc, len(data), nil)
		if err != nil && !errors.Is(err, ecc.ErrUncorrectable) {
			t.Fatalf("%s: a full-length encoding decoded to %v", name(c), err)
		}
		// Two hits on one device can cancel and a 16-bit checksum can
		// miss one, so ground truth applies only when every hit device
		// was located.
		if err == nil && rep.DetectedBlocks == len(hit) && !bytes.Equal(got, data) {
			t.Fatalf("%s: %d devices located and repaired, output is not the plaintext", name(c), len(hit))
		}
	})
}
