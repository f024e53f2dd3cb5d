package ecc

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// checkCombine holds CombineCRC, and the CRCShift for len(b), to the
// CRC-32C of a‖b.
func checkCombine(t *testing.T, a, b []byte) {
	t.Helper()
	want := crc32.Checksum(append(append([]byte(nil), a...), b...), Castagnoli)
	ca, cb := crc32.Checksum(a, Castagnoli), crc32.Checksum(b, Castagnoli)
	if got := CombineCRC(ca, cb, len(b)); got != want {
		t.Fatalf("CombineCRC over %d+%d bytes = %08x, want %08x", len(a), len(b), got, want)
	}
	var s CRCShift
	s.Init(len(b))
	if got := s.Combine(ca, cb); got != want {
		t.Fatalf("CRCShift for %d bytes: Combine over %d bytes first = %08x, want %08x", len(b), len(a), got, want)
	}
}

func TestCombineCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1<<17)
	rng.Read(buf)
	for _, n := range []int{0, 1, 2, 7, 8, 31, 32, 255, 272, 1022, 1024, 4096, 65535, 65536, 1 << 17} {
		for _, cut := range []int{0, 1, n / 3, n} {
			if cut <= n {
				checkCombine(t, buf[:cut], buf[cut:n])
			}
		}
	}
	// A length far past any buffer: combining with a run of zeros is
	// the same as appending it.
	zeros := make([]byte, 3<<20)
	checkCombine(t, buf[:100], zeros)
}

// FuzzCRC32CCombine checks the combine against crc32.Checksum of the
// joined bytes for any A and B up to 64 KiB and any split of them.
func FuzzCRC32CCombine(f *testing.F) {
	f.Add([]byte("abc"), []byte("defgh"), uint16(0))
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add(make([]byte, 300), []byte{1}, uint16(7))
	f.Fuzz(func(t *testing.T, a, b []byte, cut uint16) {
		if len(a) > 1<<16 || len(b) > 1<<16 {
			return
		}
		checkCombine(t, a, b)
		all := append(append([]byte(nil), a...), b...)
		k := int(cut) % (len(all) + 1)
		checkCombine(t, all[:k], all[k:])
	})
}
