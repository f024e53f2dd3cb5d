package zfp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/datasets"
)

// goldenField is one input of the golden-stream table. inputSHA pins
// the field's own bytes: the generators use math.Sin/Exp, whose last
// bit may differ on a platform that fuses multiply-adds, and a stream
// hash recorded on amd64 says nothing about a different input.
type goldenField struct {
	name     string
	data     []float64
	dims     []int
	inputSHA string
}

// goldenFields are small study fields whose every dimension leaves a
// partial edge block, plus a 1-D row.
func goldenFields() []goldenField {
	cesm := datasets.CESM(30, 50, 1)
	isabel := datasets.Isabel(6, 13, 10, 2)
	nyx := datasets.NYX(9, 9, 11, 3)
	return []goldenField{
		{"CESM-30x50", cesm.Data, cesm.Dims, "0181c9ffc15e22728a1836817d70959d87df18c554285a89306c38e223e32dce"},
		{"Isabel-6x13x10", isabel.Data, isabel.Dims, "bb842d3b0f160ded15a87988b0900df558b59db7e43fcc05c74840c0ce9bfd74"},
		{"NYX-9x9x11", nyx.Data, nyx.Dims, "fb0c3fc0413802989b688db0e353d6fbf419a061a8e9c36c0c05e6268d49bc27"},
		{"CESM-row-50", cesm.Data[:50], []int{50}, "1455988f8f818acec7fa15e831d168f88d0bfea3c9bfe52c4873706aaed30ee6"},
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func floatBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

func valueRange(v []float64) float64 {
	lo, hi := v[0], v[0]
	for _, f := range v {
		lo, hi = math.Min(lo, f), math.Max(hi, f)
	}
	return hi - lo
}

// goldenStreams holds SHA-256 of zfp.Compress output recorded at the
// commit before the word-speed coder landed (PR 17, e0322e5): the
// embedded coder, the block exponent and the output buffer were all
// rewritten under the promise that streams stay byte-identical, and
// this table is that promise as a tier-1 assertion.
var goldenStreams = map[string]string{
	"CESM-30x50/ACC-1e-3":             "89fd2c4f7bc0e8f968d322dc909cb8e31fc7aeeefc1898129951c461d35e32a4",
	"CESM-30x50/ACC-1e-3/decoded":     "4066894f7376e0f6375b9ddc7f08e887335b35995fedbbced435d1080876d638",
	"CESM-30x50/Rate-8":               "6536ed22cc4c90ed5d4b4afba859d776352278900f352aaa94255b15ade6b1af",
	"CESM-30x50/Rate-8/decoded":       "cf7b35651f8f4ae635f5a2bf0ccfeeffdfa9769e8162da21ab5727ffa266b240",
	"CESM-30x50/Rate-2.5":             "6783c33d9f5f4ec757d5136bfbb505e75871b3160a74da88d8b28435d11bb7ee",
	"CESM-30x50/Rate-2.5/decoded":     "5652ce42b30f9bbdcec3bf77624951ba1716970fe00bebe8c3d55583f89bdadd",
	"Isabel-6x13x10/ACC-1e-3":         "715ebf9b41fe24ecd1b23847749c9bf9e1a3e9be47892301320bb73c5c093e83",
	"Isabel-6x13x10/ACC-1e-3/decoded": "6fd24dc7a936e6c1871a58048a993c7be16934207bd36b75eda51a208aea293b",
	"Isabel-6x13x10/Rate-8":           "61f272262ae652956d85fd3fc3894ccbebf746b66f1652daf6b8d304415575a0",
	"Isabel-6x13x10/Rate-8/decoded":   "a95e44f973955803781b32dddf38260ea6e43436ef47265b2b7a8a564c043978",
	"Isabel-6x13x10/Rate-2.5":         "e8aa4c6574d45d950a04077da696e3d1bebb220541fc676dd502d557611337f8",
	"Isabel-6x13x10/Rate-2.5/decoded": "613d2d9aed07812eba32525f82c818510005cb4bb7f2283b43f529febc322e72",
	"NYX-9x9x11/ACC-1e-3":             "7e1d504b5bf4699b9c409d2a57fc71d1c402ae61cd94e20740526411462e3e61",
	"NYX-9x9x11/ACC-1e-3/decoded":     "ddc3ff3fc6fe3067256bd061e4de8e2ddd1cd9458249c144a4f46a2d3a10c8e9",
	"NYX-9x9x11/Rate-8":               "e0743ef22863b5221c48829944d6599e6760a395d4895455d39c8c002074198f",
	"NYX-9x9x11/Rate-8/decoded":       "ec7066cc9c6edb597b8e9a6a046c7d6558da03decb2ebf41abd6d93062ab25ad",
	"NYX-9x9x11/Rate-2.5":             "cf68c2022875ed580947b841f359d163924b1f1857bf86bb14354fdae3c07bd5",
	"NYX-9x9x11/Rate-2.5/decoded":     "457d0ad9cd291850f96de03f82467bd50cc0b920f37b485970c5b28d4e9e3237",
	"CESM-row-50/ACC-1e-3":            "0d30dc0a0e48895a52578579d6adad6fdd6b0d8aee921f3f5182f4212ad73ce3",
	"CESM-row-50/ACC-1e-3/decoded":    "657ec86f6adc5337b30b7404b3626b224da724ab71fcd8c39111e8d4376ca223",
	"CESM-row-50/Rate-8":              "24c7ebf7a5c67397e285a2c920855b87ac46ea291b1ea4c1f5f9495210f3e1c3",
	"CESM-row-50/Rate-8/decoded":      "f9bed5bccf49f246dceb2d69c12d1ecb9ed285dcd15ea687f727880e3a2c5506",
}

func TestGoldenStreams(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		for _, f := range goldenFields() {
			if got := sha(floatBytes(f.data)); got != f.inputSHA {
				if runtime.GOARCH == "amd64" {
					t.Errorf("%s: input sha256 = %s, want %s: the generator changed, and the table below is about another field", f.name, got, f.inputSHA)
				} else {
					t.Logf("%s: input differs from the amd64 recording (sha %s); skipping its streams", f.name, got)
				}
				continue
			}
			modes := []struct {
				name string
				opts Options
			}{
				{"ACC-1e-3", Options{Mode: ModeAccuracy, Param: 1e-3 * valueRange(f.data)}},
				{"Rate-8", Options{Mode: ModeRate, Param: 8}},
				{"Rate-2.5", Options{Mode: ModeRate, Param: 2.5}},
			}
			for _, m := range modes {
				key := f.name + "/" + m.name
				if m.opts.Mode == ModeRate && m.opts.Param < minRate(newBlocker(f.dims).blockSize) {
					continue // 1-D blocks cannot hold a header at 2.5 bits/value
				}
				buf, err := Compress(f.data, f.dims, m.opts)
				if err != nil {
					t.Errorf("%s: %v", key, err)
					continue
				}
				if got := sha(buf); got != goldenStreams[key] {
					t.Errorf("%s: stream sha256 = %s (%d bytes), want %s", key, got, len(buf), goldenStreams[key])
				}
				// The recorded stream must also still decode to what it
				// decoded to then: value-identity of the decoder.
				out, _, err := Decompress(nil, buf)
				if err != nil {
					t.Errorf("%s: decompress: %v", key, err)
					continue
				}
				dkey := key + "/decoded"
				if got := sha(floatBytes(out)); got != goldenStreams[dkey] {
					t.Errorf("%s: sha256 = %s, want %s", dkey, got, goldenStreams[dkey])
				}
			}
		}
	})
}
