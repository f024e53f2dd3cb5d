package core

// Format-stability tests: ARC containers are a storage format, so
// accidental layout changes must fail loudly. Each test encodes a
// fixed input with a fixed configuration and compares the SHA-256 of
// the result against a golden digest. If an intentional format change
// lands, bump containerVersion and regenerate these digests (the
// failure message prints the new value).

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/ecc"
)

// goldenInput is a deterministic 4 KiB payload.
func goldenInput() []byte {
	rng := rand.New(rand.NewSource(0xA2C))
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	return buf
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8]) // 8 bytes is plenty for drift detection
}

// goldenContainers are the chunk header version 2 digests (the version
// that added the chunk digest; version 1 is pinned by the decode-only
// files of TestGoldenStreams).
var goldenContainers = map[string]string{
	"parity8":    "6426b8b8e6956e57",
	"hamming64":  "d2987c1316fe47cf",
	"secded64":   "bffc7a12bfe67d53",
	"rs-m15":     "359dd68198a54e64",
	"ilsecded64": "a77de654b1579954",
}

func TestContainerFormatGolden(t *testing.T) {
	data := goldenInput()
	configs := map[string]Config{
		"parity8":    {ecc.MethodParity, 8},
		"hamming64":  {ecc.MethodHamming, 64},
		"secded64":   {ecc.MethodSECDED, 64},
		"rs-m15":     {ecc.MethodReedSolomon, 15},
		"ilsecded64": {ecc.MethodInterleavedSECDED, 64},
	}
	eng := &Engine{maxThreads: 1}
	for name, cfg := range configs {
		res, err := EncodeContainerWith(nil, data, Choice{Config: cfg, Threads: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := digest(res.Encoded)
		want, ok := goldenContainers[name]
		if !ok {
			t.Fatalf("%s: no golden digest; add %q", name, got)
		}
		if got != want {
			t.Errorf("%s: container format drifted: digest %s, golden %s\n"+
				"If this change is intentional, bump containerVersion and update the golden.",
				name, got, want)
		}
		// And regardless of format, the container must still decode.
		dec, err := eng.Decode(res.Encoded)
		if err != nil || len(dec.Data) != len(data) {
			t.Fatalf("%s: decode: %v", name, err)
		}
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	data := goldenInput()
	for _, cfg := range AllConfigs() {
		a, err := EncodeContainerWith(nil, data, Choice{Config: cfg, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeContainerWith(nil, data, Choice{Config: cfg, Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if digest(a.Encoded) != digest(b.Encoded) {
			t.Fatalf("%s: encoding depends on worker count", cfg)
		}
	}
}
