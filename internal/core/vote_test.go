package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestVoteBytesMatchesRef pins the word kernel to the scalar reference
// over odd lengths and unaligned offsets.
func TestVoteBytesMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 34, 63, 64, 65, 255, 1024} {
		for off := 0; off < 4; off++ {
			raw := make([]byte, 3*(n+off))
			rng.Read(raw)
			a := raw[off : off+n]
			b := raw[n+2*off : n+2*off+n]
			c := raw[2*n+3*off : 2*n+3*off+n]
			got := make([]byte, n)
			want := make([]byte, n)
			voteBytes(got, a, b, c)
			voteBytesRef(want, a, b, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("voteBytes(n=%d, off=%d) diverges from reference", n, off)
			}
		}
	}
}

// TestVoteBytesMajority verifies the two-of-three property directly:
// any single corrupted replica leaves the vote intact.
func TestVoteBytesMajority(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	orig := make([]byte, 100)
	rng.Read(orig)
	for victim := 0; victim < 3; victim++ {
		replicas := [3][]byte{
			append([]byte(nil), orig...),
			append([]byte(nil), orig...),
			append([]byte(nil), orig...),
		}
		rng.Read(replicas[victim]) // clobber one replica entirely
		got := make([]byte, len(orig))
		voteBytes(got, replicas[0], replicas[1], replicas[2])
		if !bytes.Equal(got, orig) {
			t.Fatalf("vote with corrupted replica %d lost data", victim)
		}
	}
}

func TestVoteBytesAllocs(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	c := make([]byte, 256)
	dst := make([]byte, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		voteBytes(dst, a, b, c)
	}); allocs != 0 {
		t.Errorf("voteBytes allocates %v times per run, want 0", allocs)
	}
}

func BenchmarkKernelVote3(b *testing.B) {
	const n = 64 << 10
	rng := rand.New(rand.NewSource(23))
	ra := make([]byte, n)
	rb := make([]byte, n)
	rc := make([]byte, n)
	dst := make([]byte, n)
	rng.Read(ra)
	rng.Read(rb)
	rng.Read(rc)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			voteBytes(dst, ra, rb, rc)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			voteBytesRef(dst, ra, rb, rc)
		}
	})
}

// voteBytesRef is the scalar reference implementation of voteBytes: the
// oracle of TestVoteBytesMatchesRef and BenchmarkKernelVote3.
func voteBytesRef(dst, a, b, c []byte) {
	for i := range dst {
		dst[i] = vote3(a[i], b[i], c[i])
	}
}
