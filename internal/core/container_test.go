package core

import (
	"bytes"
	"errors"
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
	h := header{Method: ecc.MethodSECDED, Param: 64, OrigLen: 12345, EncLen: 14000}
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
	h := header{Method: ecc.MethodReedSolomon, Param: 15, OrigLen: 999, EncLen: 2048}
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
	h := header{Method: ecc.MethodParity, Param: 8, OrigLen: 100, EncLen: 120}
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
	h := header{Method: ecc.MethodHamming, Param: 64, OrigLen: 5000, EncLen: 5600}
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

func TestVote3(t *testing.T) {
	if vote3(0xFF, 0xFF, 0x00) != 0xFF {
		t.Fatal("majority of two must win")
	}
	if vote3(0b1010, 0b1100, 0b1001) != 0b1000 {
		t.Fatalf("bitwise vote wrong: %04b", vote3(0b1010, 0b1100, 0b1001))
	}
}

func TestContainerValidation(t *testing.T) {
	if _, err := DecodeContainer(nil, 1); !errors.Is(err, ErrContainer) {
		t.Fatal("nil must fail")
	}
	h := header{Method: ecc.MethodParity, Param: 8, OrigLen: 8, EncLen: 100}
	buf := append(marshalHeader(h), make([]byte, 50)...) // EncLen larger than payload
	if _, err := DecodeContainer(buf, 1); !errors.Is(err, ErrContainer) {
		t.Fatal("truncated payload must fail")
	}
}

func TestContainerRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	choice := Choice{Config: Config{Method: ecc.MethodSECDED, Param: 8}, Threads: 1}
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, rng.Intn(1000))
		rng.Read(data)
		enc, err := EncodeContainerWith(data, choice)
		if err != nil {
			t.Fatal(err)
		}
		h, err := unmarshalHeader(enc.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		want := header{Method: ecc.MethodSECDED, Param: 8, OrigLen: len(data), EncLen: len(enc.Encoded) - ContainerOverheadBytes}
		if h != want {
			t.Fatalf("header %+v, want %+v", h, want)
		}
		dec, err := DecodeContainer(enc.Encoded, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec.Data, data) || dec.Config != choice.Config {
			t.Fatal("round trip mismatch")
		}
	}
}
