//go:build arm64

package gf256

// arm64 tier ladder: neon > word. Advanced SIMD (NEON) is an
// architectural requirement of AArch64, so there is no HWCAP probe —
// the TBL kernels are always available and only the ARC_SIMD override
// can demote the dispatch to the word tier.

func features() []string { return []string{TierNEON} }

func applyTier(name string) error {
	switch name {
	case TierNEON:
		activeTierName, activeLevel = name, levelNEON
	case TierWord:
		activeTierName, activeLevel = name, levelWord
	default:
		return errUnsupportedTier(name)
	}
	return nil
}

// mulXorSIMD applies dst[i] ^= c*src[i] to a SIMD-width prefix and
// returns how many bytes it handled (0 = caller takes the word path).
func mulXorSIMD(c byte, src, dst []byte) int {
	if activeLevel >= levelNEON && len(src) >= 16 {
		n := len(src) &^ 15
		gfMulXorNEON(&nibTables[c], src[:n], dst[:n])
		return n
	}
	return 0
}

// mulAssignSIMD is the overwrite variant of mulXorSIMD.
func mulAssignSIMD(c byte, src, dst []byte) int {
	if activeLevel >= levelNEON && len(src) >= 16 {
		n := len(src) &^ 15
		gfMulNEON(&nibTables[c], src[:n], dst[:n])
		return n
	}
	return 0
}

// xorSIMD applies dst[i] ^= src[i] to a SIMD-width prefix and returns
// how many bytes it handled.
func xorSIMD(src, dst []byte) int {
	if activeLevel >= levelNEON && len(src) >= 16 {
		n := len(src) &^ 15
		gfXorNEON(src[:n], dst[:n])
		return n
	}
	return 0
}

// gfMulXorNEON computes dst[i] ^= tab-multiply(src[i]) over len(src)
// bytes, which must be a multiple of 16 and equal len(dst).
// Implemented in mul_arm64.s.
func gfMulXorNEON(tab *[32]byte, src, dst []byte)

// gfMulNEON computes dst[i] = tab-multiply(src[i]) (overwrite, not
// accumulate) with the same contract as gfMulXorNEON.
// Implemented in mul_arm64.s.
func gfMulNEON(tab *[32]byte, src, dst []byte)

// gfXorNEON computes dst[i] ^= src[i] over len(src) bytes, a multiple
// of 16. Implemented in mul_arm64.s.
func gfXorNEON(src, dst []byte)

// mulRowsSIMD leaves MulRows to the MulSlice loop: NEON has no
// multi-destination kernel.
func mulRowsSIMD(m *MulMatrix, src, dst [][]byte, n int) int { return 0 }
