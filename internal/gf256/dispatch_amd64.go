//go:build amd64

package gf256

// amd64 tier ladder: avx2 > ssse3 > word. Feature bits are detected
// once at package init (before dispatch.go's init runs, per the spec's
// variable-before-init ordering); the use* booleans are what the hot
// paths branch on and are rewritten by applyTier.

var hasSSSE3, hasAVX2 = detectAMD64()

var (
	useSSSE3 bool
	useAVX2  bool
)

// detectAMD64 probes CPUID. SSSE3 is CPUID.1:ECX bit 9. AVX2 needs the
// instruction set (CPUID.7.0:EBX bit 5) and YMM state: OSXSAVE and AVX
// (CPUID.1:ECX bits 27/28) plus XCR0 bits 1-2 confirming the OS saves
// XMM+YMM registers across context switches.
func detectAMD64() (ssse3, avx2 bool) {
	maxLeaf, _, _, _ := cpuid(0)
	_, _, ecx1, _ := cpuid(1)
	ssse3 = ecx1&(1<<9) != 0
	const osxsaveAVX = 1<<27 | 1<<28
	if maxLeaf >= 7 && ecx1&osxsaveAVX == osxsaveAVX {
		if xcr0, _ := xgetbv(); xcr0&0x6 == 0x6 {
			_, ebx7, _, _ := cpuid(7)
			avx2 = ebx7&(1<<5) != 0
		}
	}
	return ssse3, avx2
}

func features() []string {
	var f []string
	if hasAVX2 {
		f = append(f, TierAVX2)
	}
	if hasSSSE3 {
		f = append(f, TierSSSE3)
	}
	return f
}

// applyTier activates the named tier. A wider tier implies the
// narrower ones below it (an avx2 dispatch still uses the ssse3 kernel
// for 16-31 byte slices).
func applyTier(name string) error {
	switch name {
	case TierAVX2:
		if !hasAVX2 {
			return errUnsupportedTier(name)
		}
		useAVX2, useSSSE3 = true, true
	case TierSSSE3:
		if !hasSSSE3 {
			return errUnsupportedTier(name)
		}
		useAVX2, useSSSE3 = false, true
	case TierWord:
		useAVX2, useSSSE3 = false, false
	default:
		return errUnsupportedTier(name)
	}
	activeTierName = name
	return nil
}

// mulXorSIMD applies dst[i] ^= c*src[i] to a SIMD-width prefix and
// returns how many bytes it handled (0 = caller takes the word path).
func mulXorSIMD(c byte, src, dst []byte) int {
	if useAVX2 && len(src) >= 32 {
		n := len(src) &^ 31
		gfMulXorAVX2(&nibTables[c], src[:n], dst[:n])
		return n
	}
	if useSSSE3 && len(src) >= 16 {
		n := len(src) &^ 15
		gfMulXorNib(&nibTables[c], src[:n], dst[:n])
		return n
	}
	return 0
}

// mulAssignSIMD is the overwrite variant of mulXorSIMD.
func mulAssignSIMD(c byte, src, dst []byte) int {
	if useAVX2 && len(src) >= 32 {
		n := len(src) &^ 31
		gfMulAVX2(&nibTables[c], src[:n], dst[:n])
		return n
	}
	if useSSSE3 && len(src) >= 16 {
		n := len(src) &^ 15
		gfMulNib(&nibTables[c], src[:n], dst[:n])
		return n
	}
	return 0
}

// xorSIMD applies dst[i] ^= src[i] to a SIMD-width prefix and returns
// how many bytes it handled. Only the 32-byte AVX2 lane beats the
// portable word loop; SSSE3-class XOR is no wider than uint64 pairs,
// so the ssse3 tier keeps the word path here.
func xorSIMD(src, dst []byte) int {
	if useAVX2 && len(src) >= 32 {
		n := len(src) &^ 31
		gfXorAVX2(src[:n], dst[:n])
		return n
	}
	return 0
}

// mulRowsSIMD runs MulRows over the first n&^31 bytes of every row
// under the avx2 tier, in passes of at most eight destinations, and
// returns how many bytes it handled (0 = the caller does them all).
func mulRowsSIMD(m *MulMatrix, src, dst [][]byte, n int) int {
	if !useAVX2 || n < 32 {
		return 0
	}
	var refs [Order]srcRef
	ns := 0
	for j, s := range src {
		if s != nil {
			refs[ns] = srcRef{&s[0], uintptr(j) * 32}
			ns++
		}
	}
	if ns == 0 {
		return 0
	}
	n &^= 31
	var rows, dsts [8]*byte
	k := 0
	for i, d := range dst {
		if d == nil {
			continue
		}
		rows[k], dsts[k] = &m.nib[i*m.cols][0], &d[0]
		if k++; k == len(rows) {
			mulRowsAVX2(refs[:ns], &rows, &dsts, n, k)
			k = 0
		}
	}
	if k > 0 {
		mulRowsAVX2(refs[:ns], &rows, &dsts, n, k)
	}
	return n
}
