package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/ecc"
)

// marshalHeader returns h's replicated header prefix in a fresh buffer.
func marshalHeader(h header) []byte {
	out := make([]byte, ContainerOverheadBytes)
	marshalHeaderInto(out, h)
	return out
}

func TestHeaderRoundTrip(t *testing.T) {
	h := header{Version: containerVersion, Method: ecc.MethodSECDED, Param: 64, OrigLen: 12345, EncLen: 14000, Digest: 0xC0FFEE}
	buf := marshalHeader(h)
	if len(buf) != ContainerOverheadBytes {
		t.Fatalf("header length %d", len(buf))
	}
	got, err := unmarshalHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v want %+v", got, h)
	}
}

func TestHeaderSurvivesSingleReplicaDestruction(t *testing.T) {
	h := header{Version: containerVersion, Method: ecc.MethodReedSolomon, Param: 15, OrigLen: 999, EncLen: 2048}
	buf := marshalHeader(h)
	// Obliterate the entire first replica.
	for i := 0; i < headerLen; i++ {
		buf[i] ^= 0xFF
	}
	got, err := unmarshalHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatal("header not recovered from surviving replicas")
	}
}

func TestHeaderSurvivesScatteredDamageViaVoting(t *testing.T) {
	h := header{Version: containerVersion, Method: ecc.MethodParity, Param: 8, OrigLen: 100, EncLen: 120}
	buf := marshalHeader(h)
	// Damage each replica at a different offset: every replica's CRC
	// fails, but byte-wise majority voting recovers.
	buf[2] ^= 0x55
	buf[headerLen+10] ^= 0x55
	buf[2*headerLen+20] ^= 0x55
	got, err := unmarshalHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatal("voting failed to recover header")
	}
}

func TestHeaderEverySingleBitFlipRecoverable(t *testing.T) {
	h := header{Version: containerVersion, Method: ecc.MethodHamming, Param: 64, OrigLen: 5000, EncLen: 5600, Digest: 0x12345678}
	clean := marshalHeader(h)
	for bit := 0; bit < len(clean)*8; bit++ {
		buf := append([]byte(nil), clean...)
		buf[bit/8] ^= 0x80 >> (bit % 8)
		got, err := unmarshalHeader(buf)
		if err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
		if got != h {
			t.Fatalf("bit %d: wrong header recovered", bit)
		}
	}
}

func TestHeaderAlignedDamageFails(t *testing.T) {
	h := header{Method: ecc.MethodParity, Param: 1, OrigLen: 10, EncLen: 12}
	buf := marshalHeader(h)
	// Same offset in all three replicas defeats voting.
	for r := 0; r < headerReplicas; r++ {
		buf[r*headerLen+6] ^= 0xFF
	}
	_, err := unmarshalHeader(buf)
	// Voting returns the (corrupt) majority value, whose CRC fails.
	if !errors.Is(err, ErrContainer) {
		t.Fatalf("want ErrContainer, got %v", err)
	}
}

// formatDigest is the chunk digest as docs/FORMAT.md defines it:
// CRC-32C over the little-endian u64 start offset, then the chunk's
// original bytes, in one pass.
func formatDigest(off int64, data []byte) uint32 {
	seeded := append(binary.LittleEndian.AppendUint64(nil, uint64(off)), data...)
	return crc32.Checksum(seeded, crc32.MakeTable(crc32.Castagnoli))
}

// TestChunkDigestIsCRC32COfOffsetAndBytes pins the digest's definition:
// chunkDigest joins the offset's CRC to the bytes' CRC, and the join is
// the one-pass CRC of both.
func TestChunkDigestIsCRC32COfOffsetAndBytes(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("a chunk's original bytes"), bytes.Repeat([]byte{0xC3}, 70_000)} {
		crc := crc32.Checksum(data, ecc.Castagnoli)
		for _, off := range []int64{0, 1, 4 << 20, 1<<40 + 7, -1} {
			if got, want := chunkDigest(off, crc, len(data)), formatDigest(off, data); got != want {
				t.Errorf("%d bytes at offset %d: digest %#08x, want %#08x", len(data), off, got, want)
			}
		}
		if chunkDigest(0, crc, len(data)) == chunkDigest(int64(len(data))+1, crc, len(data)) {
			t.Error("the digest does not depend on the offset")
		}
	}
}

func TestVote3(t *testing.T) {
	if vote3(0xFF, 0xFF, 0x00) != 0xFF {
		t.Fatal("majority of two must win")
	}
	if vote3(0b1010, 0b1100, 0b1001) != 0b1000 {
		t.Fatalf("bitwise vote wrong: %04b", vote3(0b1010, 0b1100, 0b1001))
	}
}

func TestContainerValidation(t *testing.T) {
	if _, err := DecodeContainer(nil, nil, 1); !errors.Is(err, ErrContainer) {
		t.Fatal("nil must fail")
	}
	h := header{Method: ecc.MethodParity, Param: 8, OrigLen: 8, EncLen: 100}
	buf := append(marshalHeader(h), make([]byte, 50)...) // EncLen larger than payload
	if _, err := DecodeContainer(nil, buf, 1); !errors.Is(err, ErrContainer) {
		t.Fatal("truncated payload must fail")
	}
}

func TestContainerRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	choice := Choice{Config: Config{Method: ecc.MethodSECDED, Param: 8}, Threads: 1}
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, rng.Intn(1000))
		rng.Read(data)
		enc, err := EncodeContainerWith(nil, data, choice)
		if err != nil {
			t.Fatal(err)
		}
		h, err := unmarshalHeader(enc.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		want := header{Version: containerVersion, Method: ecc.MethodSECDED, Param: 8, OrigLen: len(data),
			EncLen: len(enc.Encoded) - ContainerOverheadBytes, Digest: formatDigest(0, data)}
		if h != want {
			t.Fatalf("header %+v, want %+v", h, want)
		}
		dec, err := DecodeContainer(nil, enc.Encoded, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec.Data, data) || dec.Config != choice.Config {
			t.Fatal("round trip mismatch")
		}
	}
}

// TestContainerIntoDst checks that the one-shot pair builds its output
// in dst's storage when the capacity suffices, and allocates otherwise.
func TestContainerIntoDst(t *testing.T) {
	data := make([]byte, 5000)
	rand.New(rand.NewSource(41)).Read(data)
	choice := Choice{Config: Config{Method: ecc.MethodSECDED, Param: 64}, Threads: 1}
	want, err := EncodeContainerWith(nil, data, choice)
	if err != nil {
		t.Fatal(err)
	}

	encDst := make([]byte, 3, len(want.Encoded)) // length does not matter, capacity does
	enc, err := EncodeContainerWith(encDst, data, choice)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Encoded, want.Encoded) || &enc.Encoded[0] != &encDst[:1][0] {
		t.Fatal("EncodeContainerWith did not build the container in dst")
	}
	decDst := make([]byte, 0, len(data))
	dec, err := DecodeContainer(decDst, enc.Encoded, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Data, data) || &dec.Data[0] != &decDst[:1][0] {
		t.Fatal("DecodeContainer did not decode into dst")
	}

	small := make([]byte, 0, 16)
	if enc, err := EncodeContainerWith(small, data, choice); err != nil || &enc.Encoded[0] == &small[:1][0] {
		t.Fatalf("EncodeContainerWith wrote past a too-small dst (err %v)", err)
	}
	if dec, err := DecodeContainer(small, want.Encoded, 1); err != nil || !bytes.Equal(dec.Data, data) {
		t.Fatalf("DecodeContainer with a too-small dst: %v", err)
	}
}
