package sz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// goldenField is one input of the golden-stream table.
type goldenField struct {
	name string
	data []float64
	dims []int
}

// goldenFields are small study fields in 1, 2 and 3 dimensions plus a
// field salted with NaN, ±Inf, zeros, negatives and spikes far outside
// the quantizer range, so the unpredictable pool, the PWREL flag stream
// and Huffman codes longer than the decode table's window all appear.
func goldenFields() []goldenField {
	cesm := datasets.CESM(70, 100, 1)
	isabel := datasets.Isabel(10, 27, 22, 2)
	nyx := datasets.NYX(20, 19, 21, 3)
	hostile := append([]float64(nil), isabel.Data...)
	for i := range hostile {
		switch {
		case i%97 == 0:
			hostile[i] = math.NaN()
		case i%101 == 0:
			hostile[i] = math.Inf(1 - 2*(i&1))
		case i%53 == 0:
			hostile[i] = 0
		case i%29 == 0:
			hostile[i] = -hostile[i] * 1e9
		}
	}
	return []goldenField{
		{"CESM-70x100", cesm.Data, cesm.Dims},
		{"Isabel-10x27x22", isabel.Data, isabel.Dims},
		{"NYX-20x19x21", nyx.Data, nyx.Dims},
		{"CESM-row-3000", cesm.Data[:3000], []int{3000}},
		{"Hostile-10x27x22", hostile, isabel.Dims},
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

// finiteRange is max-min over the finite values of v.
func finiteRange(v []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range v {
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			lo, hi = math.Min(lo, f), math.Max(hi, f)
		}
	}
	return hi - lo
}

// goldenInputs pins each field's own bytes: the generators use
// math.Sin/Exp, whose last bit may differ on a platform that fuses
// multiply-adds, and a stream hash recorded on amd64 says nothing about
// a different input. goldenStreams holds SHA-256 of sz.Compress output
// (and of what it decodes to) recorded at the commit before the batched entropy stage landed (PR 18, 7bd7c67): Huffman
// encode and decode, the histogram, the payload assembly and the
// quantize buffers were all rewritten under the promise that streams
// stay byte-identical, and this table is that promise as a tier-1
// assertion. A mismatch is a format change, not a hash to refresh;
// ARC_UPDATE_GOLDEN=1 prints the table for a deliberate one.
var goldenInputs = map[string]string{
	"CESM-70x100":      "3152a36ddc29f71a13ea8d7cf2ecd0304dcc7ff4e33fb9b66d7b366ac21c0fb9",
	"CESM-row-3000":    "9105041e19fe908ccb4417bde227d99988818fbed236a26198c0f11a033e16ea",
	"Hostile-10x27x22": "c5d59c1e892d16e9a96a4f7dad3e37f6817f31e8da7d059db020bed4be5afee4",
	"Isabel-10x27x22":  "307097452f243c1ed9f67c1268d423ff8fb90955fd7d66dc3db4788a21dec01c",
	"NYX-20x19x21":     "6e54fe0bd3014dca78434976a49c726f717a055dbe82d28db9e2f662fb2fc0b0",
}

var goldenStreams = map[string]string{
	"CESM-70x100/ABS-1e-3":                "a5be9088bad6b3f6aedbc0983366d290b7acf34b74a963f2a92c398aaa60e5bc",
	"CESM-70x100/ABS-1e-3/decoded":        "9e134187b0b33c3ce498c95dde098ac398f66e1a30820a2b46e5825ab8987d13",
	"CESM-70x100/PSNR-80":                 "301c180635a2b12975ec5055c97f2a85b458d54b9870efa411a7c64036d26c19",
	"CESM-70x100/PSNR-80/decoded":         "b7535b65747370af9fcb184aac81ca4b1ee41a5ef5b6fdd9db9e794f7c742db2",
	"CESM-70x100/PWREL-1e-2":              "91a0f936aa560263ea9baa3833a7e8458f239065740a91e37762f812fd9d33c1",
	"CESM-70x100/PWREL-1e-2/decoded":      "9af06211910223eb789d0006d9245720cb201ae90017acf8436386a320d0fe7e",
	"CESM-row-3000/ABS-1e-3":              "374acae7628671dce0032377f2cfc6df3041ad0b04e707fc87283eaf3d0d91ee",
	"CESM-row-3000/ABS-1e-3/decoded":      "c3c67b1904533473814f72f29c8e38658452be8ef0f5be00833be5c4399cc335",
	"CESM-row-3000/PSNR-80":               "e46508e6f1ad721cbff39e12bc89738ba3e9e01c6bef8eee77f58e592969182b",
	"CESM-row-3000/PSNR-80/decoded":       "151538e10f755ae560a09ef4ccd90f8572555fcb9e9f834d06ff10bb41f02922",
	"CESM-row-3000/PWREL-1e-2":            "379461549f9e0910d12c7e2ea94a1c63744b737be890ca30108d2858571063bd",
	"CESM-row-3000/PWREL-1e-2/decoded":    "60fac958ec253c0f51f99dc30c075d38dcae80ad3532909f5020ce31194fc30a",
	"Hostile-10x27x22/ABS-1e-3":           "fa8d060fccb854a3936ec647c500d9034d81bed073d8395ad122815ae16c7a7d",
	"Hostile-10x27x22/ABS-1e-3/decoded":   "f22a155ef3e1cc39eededd84d24a10911b9627cefc328907511c8b39ea7c120f",
	"Hostile-10x27x22/PWREL-1e-2":         "8ce5dbee3b9fcc37a2296b1da2e376012ad4699502e7f9e59dfec9d44cd3f3b2",
	"Hostile-10x27x22/PWREL-1e-2/decoded": "fcffd0ed2c25469775d444ea05ba74e5c3a96d7172da19250913e09b3fc0a30f",
	"Isabel-10x27x22/ABS-1e-3":            "7ec451126f14661f46183a94f77555485312553545750ee507c9f3ae5978b3c1",
	"Isabel-10x27x22/ABS-1e-3/decoded":    "84a9e1773d6bbae4ad11a80fdc3ae4e8e91cf6df457d485e98a44867f709bb7d",
	"Isabel-10x27x22/PSNR-80":             "8f0bec37f462860220ac571586575f557083881fa5671a1e248f381237ab0f6c",
	"Isabel-10x27x22/PSNR-80/decoded":     "d2d553b03516ad6a855eb713f190274aa77720bd9bcc1d07acd97c616dd58645",
	"Isabel-10x27x22/PWREL-1e-2":          "44657ba7463083e43d18f1bb33a7c7f7f9c539d98f1aa357de35b315b4012b6f",
	"Isabel-10x27x22/PWREL-1e-2/decoded":  "d07bc2db7e55d14c8a7a4e64ba8c43784d91b5e33ea41dc3cc834ca0f8be1ce7",
	"NYX-20x19x21/ABS-1e-3":               "0b9c207a8789a3311f0ca025ee3b4767cee6dc91ab7f70fbde5cb3be493df6ec",
	"NYX-20x19x21/ABS-1e-3/decoded":       "0e1b3be27e9c00bfee689099d7ec2268cf2321e265497db89bacf7d8592b4373",
	"NYX-20x19x21/PSNR-80":                "a05be7d281cf3c07c1212e3a0c728d1102278dae1799ff0e7c50cea11f83f163",
	"NYX-20x19x21/PSNR-80/decoded":        "33dbd07ae18e48f2133a40ba86ac931525b10f42b4537f5599c31a974fe62c56",
	"NYX-20x19x21/PWREL-1e-2":             "5f8521cbf041bf6bb0b265e0c5898a5b28db33bd2b98e56e6b72ea6f0df47138",
	"NYX-20x19x21/PWREL-1e-2/decoded":     "99f1f0758e688b1e2def2c19b14cc523bcf08476eb91da1d92e139bebde271ac",
}

func TestGoldenStreams(t *testing.T) {
	update := os.Getenv("ARC_UPDATE_GOLDEN") != ""
	recorded := map[string]string{}
	inputs := map[string]string{}
	for _, f := range goldenFields() {
		in := sha(floatBytes(f.data))
		inputs[f.name] = in
		if !update && in != goldenInputs[f.name] {
			if runtime.GOARCH == "amd64" {
				t.Errorf("%s: input sha256 = %s, want %s: the generator changed, and the table below is about another field", f.name, in, goldenInputs[f.name])
			} else {
				t.Logf("%s: input differs from the amd64 recording (sha %s); skipping its streams", f.name, in)
			}
			continue
		}
		modes := []struct {
			name string
			opts Options
		}{
			{"ABS-1e-3", Options{Mode: ModeABS, ErrorBound: 1e-3 * finiteRange(f.data)}},
			{"PWREL-1e-2", Options{Mode: ModePWREL, ErrorBound: 1e-2}},
			{"PSNR-80", Options{Mode: ModePSNR, ErrorBound: 80}},
		}
		for _, m := range modes {
			key := f.name + "/" + m.name
			if lo, hi := valueRange(f.data); m.opts.Mode == ModePSNR && !(hi-lo < math.Inf(1)) {
				continue // no PSNR over a range that is not finite
			}
			buf, err := Compress(f.data, f.dims, m.opts)
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			recorded[key] = sha(buf)
			if !update && recorded[key] != goldenStreams[key] {
				t.Errorf("%s: stream sha256 = %s (%d bytes), want %s", key, recorded[key], len(buf), goldenStreams[key])
			}
			// The recorded stream must also still decode to what it
			// decoded to then: value-identity of the decoder.
			out, _, err := Decompress(nil, buf)
			if err != nil {
				t.Errorf("%s: decompress: %v", key, err)
				continue
			}
			dkey := key + "/decoded"
			recorded[dkey] = sha(floatBytes(out))
			if !update && recorded[dkey] != goldenStreams[dkey] {
				t.Errorf("%s: sha256 = %s, want %s", dkey, recorded[dkey], goldenStreams[dkey])
			}
		}
	}
	if update {
		t.Logf("var goldenInputs = %s\n\nvar goldenStreams = %s", goMap(inputs), goMap(recorded))
	} else if len(recorded) != len(goldenStreams) {
		t.Errorf("%d streams checked, table has %d", len(recorded), len(goldenStreams))
	}
}

// goMap formats m as the Go literal the tables above are pasted from.
func goMap(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("map[string]string{\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "\t%q: %q,\n", k, m[k])
	}
	b.WriteString("}")
	return b.String()
}
