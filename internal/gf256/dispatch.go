package gf256

import (
	"fmt"
	"os"
	"strings"
)

// Runtime SIMD dispatch. Each architecture contributes a ladder of
// tiers (widest first); a tier runs its own kernels and those of every
// tier below it. The slice kernels consult the active level on every
// call and fall through to the portable uint64 word path when no SIMD
// tier applies. The tier is chosen once at init from CPU feature
// detection, optionally capped by the ARC_SIMD environment variable so
// every compiled-in tier is testable on one host. The scalar reference
// implementations (MulSliceRef and friends) sit below the word tier
// and are never dispatched to — they exist as differential-test
// oracles and benchmark baselines.
const (
	// TierGFNI is the amd64 VGF2P8AFFINEQB path: the avx2 tier with
	// one affine multiply per coefficient in place of the nibble
	// shuffles. It needs AVX2 and GFNI.
	TierGFNI = "gfni"
	// TierAVX2 is the amd64 32-byte VPSHUFB path.
	TierAVX2 = "avx2"
	// TierSSSE3 is the amd64 16-byte PSHUFB path.
	TierSSSE3 = "ssse3"
	// TierNEON is the arm64 16-byte TBL path.
	TierNEON = "neon"
	// TierWord is the portable uint64-lane path, available everywhere.
	TierWord = "word"
)

// SIMDEnv is the environment variable consulted at init to cap the
// dispatch tier: one of the tier names above, "off"/"none"/"scalar"
// (aliases for "word"), or ""/"auto" for the best supported tier.
// Unsupported or unknown values fall back to the best supported tier.
const SIMDEnv = "ARC_SIMD"

// A Level is a tier's rank in its architecture's ladder. A tier runs
// the kernels of every level below its own, so a kernel is gated on the
// lowest level that has it: AtLeast(LevelAVX2) holds under gfni too.
// Levels compare tiers of one architecture only; arm64's neon ranks
// with amd64's ssse3 as the first vector tier. LevelAVX2 is the one
// level code outside this package gates on.
type Level uint8

const (
	levelWord Level = iota
	levelSSSE3
	LevelAVX2
	levelGFNI

	levelNEON = levelSSSE3
)

// activeTierName and activeLevel are the tier the slice kernels
// currently dispatch to. They are written at init and by ForceTier
// (tests, benchmarks), both through applyTier; the hot paths read only
// the level.
var (
	activeTierName = TierWord
	activeLevel    = levelWord
)

// AtLeast reports whether the active tier is at or above level l. It
// is one integer compare, so a kernel choice per block costs nothing.
func AtLeast(l Level) bool { return activeLevel >= l }

// ActiveTier returns the dispatch tier the slice kernels currently
// use: one of Tiers().
func ActiveTier() string { return activeTierName }

// Features returns the detected CPU SIMD features relevant to this
// package (widest first), regardless of any ARC_SIMD override:
// e.g. ["gfni", "avx2", "ssse3"] on a modern amd64 host, ["neon"] on
// arm64, nil elsewhere.
func Features() []string { return features() }

// Tiers returns the dispatch tiers runnable on this host, widest
// first. The portable word tier is always last and always present.
func Tiers() []string { return append(features(), TierWord) }

// ForceTier switches the slice kernels to the named tier and returns a
// restore function that reinstates the previous tier. It errors when
// the tier is not supported on this host. It mutates package-level
// dispatch state, so callers (tests, benchmarks) must not run
// concurrently with other users of the package.
func ForceTier(name string) (restore func(), err error) {
	prev := activeTierName
	if err := applyTier(name); err != nil {
		return nil, err
	}
	return func() { _ = applyTier(prev) }, nil
}

func errUnsupportedTier(name string) error {
	return fmt.Errorf("gf256: tier %q not supported on this host (have %s)",
		name, strings.Join(Tiers(), ", "))
}

func init() {
	best := TierWord
	if f := features(); len(f) > 0 {
		best = f[0]
	}
	want := best
	switch v := strings.ToLower(os.Getenv(SIMDEnv)); v {
	case "", "auto":
	case "off", "none", "scalar":
		want = TierWord
	default:
		want = v
	}
	if applyTier(want) != nil {
		// Unsupported request (ARC_SIMD=gfni on an AVX2-only host, or
		// a typo): run at the best supported tier rather than failing.
		_ = applyTier(best)
	}
}
