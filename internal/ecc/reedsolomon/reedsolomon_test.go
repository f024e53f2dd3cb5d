package reedsolomon

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ecc"
)

func mustNew(t *testing.T, k, m, ds, w int) *Code {
	t.Helper()
	c, err := New(k, m, ds, w)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, 64, 1); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := New(2, 0, 64, 1); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := New(200, 100, 64, 1); err == nil {
		t.Fatal("k+m > 256 must fail")
	}
	c, err := New(4, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.DeviceSize != DefaultDeviceSize {
		t.Fatal("deviceSize <= 0 must select the default")
	}
}

func TestRoundTripClean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []struct{ k, m, ds int }{
		{4, 2, 16}, {10, 4, 64}, {241, 15, 32}, {153, 103, 16},
	} {
		c := mustNew(t, cfg.k, cfg.m, cfg.ds, 1)
		for _, n := range []int{0, 1, cfg.ds - 1, cfg.ds, cfg.k * cfg.ds, cfg.k*cfg.ds + 1, 3 * cfg.k * cfg.ds} {
			data := make([]byte, n)
			rng.Read(data)
			enc, _ := c.EncodeTo(nil, data, nil)
			if len(enc) != c.EncodedSize(n) {
				t.Fatalf("k=%d m=%d n=%d: size mismatch", cfg.k, cfg.m, n)
			}
			got, _, rep, err := c.DecodeTo(nil, enc, n, nil)
			if err != nil {
				t.Fatalf("clean decode: %v", err)
			}
			if rep.DetectedBlocks != 0 {
				t.Fatalf("clean decode detected %d devices", rep.DetectedBlocks)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("k=%d m=%d n=%d: mismatch", cfg.k, cfg.m, n)
			}
		}
	}
}

func TestCorrectsUpToMDeviceErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := mustNew(t, 8, 3, 32, 1)
	data := make([]byte, 8*32*2) // two stripes
	rng.Read(data)
	enc, _ := c.EncodeTo(nil, data, nil)
	// Corrupt exactly M devices in stripe 0: smash whole devices.
	for _, d := range []int{1, 5, 9} { // two data devices + one parity
		off := d * 32
		for i := 0; i < 32; i++ {
			enc[off+i] ^= 0xFF
		}
	}
	got, _, rep, err := c.DecodeTo(nil, enc, len(data), nil)
	if err != nil {
		t.Fatalf("M erasures must be correctable: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("rebuilt data mismatch")
	}
	if rep.DetectedBlocks != 3 || rep.CorrectedBlocks != 3 {
		t.Fatalf("report %+v, want 3 detected / 3 corrected", rep)
	}
}

func TestFailsBeyondMErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := mustNew(t, 6, 2, 16, 1)
	data := make([]byte, 6*16)
	rng.Read(data)
	enc, _ := c.EncodeTo(nil, data, nil)
	for _, d := range []int{0, 2, 4} { // M+1 corrupt devices
		enc[d*16] ^= 0x01
	}
	_, _, rep, err := c.DecodeTo(nil, enc, len(data), nil)
	if !errors.Is(err, ecc.ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", err)
	}
	if rep.DetectedBlocks != 3 {
		t.Fatalf("detected %d, want 3", rep.DetectedBlocks)
	}
}

func TestBurstErrorWithinOneDevice(t *testing.T) {
	// The defining RS property for ARC: any number of flips inside M
	// devices is still one erasure each.
	rng := rand.New(rand.NewSource(14))
	c := mustNew(t, 10, 2, 64, 1)
	data := make([]byte, 10*64)
	rng.Read(data)
	enc, _ := c.EncodeTo(nil, data, nil)
	for i := 0; i < 64; i++ { // obliterate an entire device
		enc[3*64+i] = byte(rng.Intn(256))
	}
	got, _, _, err := c.DecodeTo(nil, enc, len(data), nil)
	if err != nil {
		t.Fatalf("burst within one device must correct: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch after burst repair")
	}
}

func TestCRCTableCorruptionIsAnErasure(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c := mustNew(t, 4, 2, 16, 1)
	data := make([]byte, 4*16)
	rng.Read(data)
	enc, _ := c.EncodeTo(nil, data, nil)
	// Flip a bit inside the CRC table: its device looks corrupt but is
	// healthy; rebuilding it must reproduce identical content.
	crcOff := (4 + 2) * 16
	enc[crcOff+1] ^= 0x40
	got, _, rep, err := c.DecodeTo(nil, enc, len(data), nil)
	if err != nil {
		t.Fatalf("CRC-entry flip must be recoverable: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch after CRC-entry repair")
	}
	if rep.DetectedBlocks != 1 {
		t.Fatalf("detected %d, want 1", rep.DetectedBlocks)
	}
}

func TestDecodeDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	c := mustNew(t, 4, 2, 16, 1)
	data := make([]byte, 4*16)
	rng.Read(data)
	enc, _ := c.EncodeTo(nil, data, nil)
	enc[5] ^= 0x10
	snapshot := append([]byte(nil), enc...)
	if _, _, _, err := c.DecodeTo(nil, enc, len(data), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, snapshot) {
		t.Fatal("Decode mutated its input")
	}
}

func TestTruncated(t *testing.T) {
	c := mustNew(t, 4, 2, 16, 1)
	enc, _ := c.EncodeTo(nil, make([]byte, 64), nil)
	if _, _, _, err := c.DecodeTo(nil, enc[:len(enc)-1], 64, nil); !errors.Is(err, ecc.ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 8*32*7+5)
	rng.Read(data)
	serial, _ := mustNew(t, 8, 3, 32, 1).EncodeTo(nil, data, nil)
	for _, w := range []int{2, 4} {
		par, _ := mustNew(t, 8, 3, 32, w).EncodeTo(nil, data, nil)
		if !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d: encoding differs", w)
		}
	}
}

func TestQuickRandomDeviceCorruption(t *testing.T) {
	c := mustNew(t, 6, 3, 8, 1)
	rng := rand.New(rand.NewSource(18))
	prop := func(seed int64, nBad8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 6*8*2)
		r.Read(data)
		enc, _ := c.EncodeTo(nil, data, nil)
		nBad := int(nBad8) % 4 // 0..3 == up to M
		// Pick distinct devices within stripe 0.
		perm := rng.Perm(9)[:nBad]
		for _, d := range perm {
			off := d * 8
			enc[off+r.Intn(8)] ^= byte(1 << r.Intn(8))
		}
		got, _, _, err := c.DecodeTo(nil, enc, len(data), nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperConfigurations(t *testing.T) {
	// The configurations the paper reports ARC choosing: 241+15 under a
	// 0.2 memory constraint and 153+103 under 0.9.
	rng := rand.New(rand.NewSource(19))
	for _, cfg := range []struct{ k, m int }{{241, 15}, {153, 103}} {
		c := mustNew(t, cfg.k, cfg.m, 64, 2)
		data := make([]byte, cfg.k*64)
		rng.Read(data)
		enc, _ := c.EncodeTo(nil, data, nil)
		// Corrupt m/2 devices.
		for d := 0; d < cfg.m/2; d++ {
			enc[d*2*64] ^= 0xAA
		}
		got, _, _, err := c.DecodeTo(nil, enc, len(data), nil)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("k=%d m=%d failed: %v", cfg.k, cfg.m, err)
		}
	}
}

// TestChecksumWidths pins the checksum table at a CRC-32C of 4 bytes
// per device, which still locates a corrupted device for repair.
func TestChecksumWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := mustNew(t, 8, 3, 64, 1)
	data := make([]byte, 8*64*2+13)
	rng.Read(data)
	enc, _ := c.EncodeTo(nil, data, nil)
	if want := 3 * (8 + 3) * (64 + 4); len(enc) != want { // three stripes
		t.Fatalf("encoded %d bytes, want %d", len(enc), want)
	}
	got, _, _, err := c.DecodeTo(nil, enc, len(data), nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean round trip failed: %v", err)
	}
	// Device corruption still located and repaired.
	enc[70] ^= 0x5A
	got, _, rep, err := c.DecodeTo(nil, enc, len(data), nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("repair failed: %v", err)
	}
	if rep.CorrectedBlocks != 1 {
		t.Fatalf("corrected %d", rep.CorrectedBlocks)
	}
}
