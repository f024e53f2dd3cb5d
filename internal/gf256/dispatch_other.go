//go:build !amd64 && !arm64

package gf256

// Architectures without a SIMD kernel always run the portable word
// tier; the constant-false hooks let the compiler erase the dispatch
// branches entirely.

func features() []string { return nil }

func applyTier(name string) error {
	if name != TierWord {
		return errUnsupportedTier(name)
	}
	activeTierName, activeLevel = name, levelWord
	return nil
}

func mulXorSIMD(c byte, src, dst []byte) int                 { return 0 }
func mulAssignSIMD(c byte, src, dst []byte) int              { return 0 }
func xorSIMD(src, dst []byte) int                            { return 0 }
func mulRowsSIMD(m *MulMatrix, src, dst [][]byte, n int) int { return 0 }
