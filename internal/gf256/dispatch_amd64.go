//go:build amd64

package gf256

// amd64 tier ladder: gfni > avx2 > ssse3 > word. Feature bits are
// detected once at package init (before dispatch.go's init runs, per
// the spec's variable-before-init ordering); the hot paths branch on
// the active level, which applyTier sets.

var hasSSSE3, hasAVX2, hasGFNI = detectAMD64()

// detectAMD64 probes CPUID. SSSE3 is CPUID.1:ECX bit 9. AVX2 needs the
// instruction set (CPUID.7.0:EBX bit 5) and YMM state: OSXSAVE and AVX
// (CPUID.1:ECX bits 27/28) plus XCR0 bits 1-2 confirming the OS saves
// XMM+YMM registers across context switches. The gfni tier runs the
// VEX form of GFNI (CPUID.7.0:ECX bit 8) on YMM registers beside AVX2
// code, so it needs both.
func detectAMD64() (ssse3, avx2, gfni bool) {
	maxLeaf, _, _, _ := cpuid(0)
	_, _, ecx1, _ := cpuid(1)
	ssse3 = ecx1&(1<<9) != 0
	const osxsaveAVX = 1<<27 | 1<<28
	if maxLeaf >= 7 && ecx1&osxsaveAVX == osxsaveAVX {
		if xcr0, _ := xgetbv(); xcr0&0x6 == 0x6 {
			_, ebx7, ecx7, _ := cpuid(7)
			avx2 = ebx7&(1<<5) != 0
			gfni = avx2 && ecx7&(1<<8) != 0
		}
	}
	return ssse3, avx2, gfni
}

func features() []string {
	var f []string
	if hasGFNI {
		f = append(f, TierGFNI)
	}
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
// for 16-31 byte slices, and gfni the avx2 kernels it has no
// replacement for).
func applyTier(name string) error {
	var ok bool
	var l Level
	switch name {
	case TierGFNI:
		ok, l = hasGFNI, levelGFNI
	case TierAVX2:
		ok, l = hasAVX2, LevelAVX2
	case TierSSSE3:
		ok, l = hasSSSE3, levelSSSE3
	case TierWord:
		ok, l = true, levelWord
	}
	if !ok {
		return errUnsupportedTier(name)
	}
	activeTierName, activeLevel = name, l
	return nil
}

// mulXorSIMD applies dst[i] ^= c*src[i] to a SIMD-width prefix and
// returns how many bytes it handled (0 = caller takes the word path).
func mulXorSIMD(c byte, src, dst []byte) int {
	if activeLevel >= levelGFNI && len(src) >= 32 {
		n := len(src) &^ 31
		gfMulXorGFNI(&affTables[c], src[:n], dst[:n])
		return n
	}
	if activeLevel >= LevelAVX2 && len(src) >= 32 {
		n := len(src) &^ 31
		gfMulXorAVX2(&nibTables[c], src[:n], dst[:n])
		return n
	}
	if activeLevel >= levelSSSE3 && len(src) >= 16 {
		n := len(src) &^ 15
		gfMulXorNib(&nibTables[c], src[:n], dst[:n])
		return n
	}
	return 0
}

// mulAssignSIMD is the overwrite variant of mulXorSIMD.
func mulAssignSIMD(c byte, src, dst []byte) int {
	if activeLevel >= levelGFNI && len(src) >= 32 {
		n := len(src) &^ 31
		gfMulGFNI(&affTables[c], src[:n], dst[:n])
		return n
	}
	if activeLevel >= LevelAVX2 && len(src) >= 32 {
		n := len(src) &^ 31
		gfMulAVX2(&nibTables[c], src[:n], dst[:n])
		return n
	}
	if activeLevel >= levelSSSE3 && len(src) >= 16 {
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
	if activeLevel >= LevelAVX2 && len(src) >= 32 {
		n := len(src) &^ 31
		gfXorAVX2(src[:n], dst[:n])
		return n
	}
	return 0
}

// mulRowsSIMD runs MulRows over the first n&^31 bytes of every row
// under the gfni or avx2 tier and returns how many bytes it handled
// (0 = the caller does them all).
func mulRowsSIMD(m *MulMatrix, src, dst [][]byte, n int) int {
	if activeLevel < LevelAVX2 || n < 32 {
		return 0
	}
	gfni := activeLevel >= levelGFNI
	var refs [Order]srcRef
	ns := 0
	for j, s := range src {
		if s == nil {
			continue
		}
		// A source's tables: column j of a row of nibble tables, or
		// the first of column j's run of affine matrices.
		off := uintptr(j) * 32
		if gfni {
			off = uintptr(j*m.rows) * 8
		}
		refs[ns] = srcRef{&s[0], off}
		ns++
	}
	if ns == 0 {
		return 0
	}
	n &^= 31
	if gfni {
		mulRowsAffine(m, refs[:ns], dst, n)
	} else {
		mulRowsNibble(m, refs[:ns], dst, n)
	}
	return n
}

// mulRowsNibble is mulRowsSIMD under the avx2 tier: passes of at most
// eight destinations, each with its row of nibble tables.
func mulRowsNibble(m *MulMatrix, refs []srcRef, dst [][]byte, n int) {
	var rows, dsts [8]*byte
	k := 0
	for i, d := range dst {
		if d == nil {
			continue
		}
		rows[k], dsts[k] = &m.nib[i*m.cols][0], &d[0]
		if k++; k == len(rows) {
			mulRowsAVX2(refs, &rows, &dsts, n, k)
			k = 0
		}
	}
	if k > 0 {
		mulRowsAVX2(refs, &rows, &dsts, n, k)
	}
}

// mulRowsAffine is mulRowsSIMD under the gfni tier. The matrices of one
// column lie row after row, so a pass takes a run of consecutive
// non-nil rows: at most eight, as in mulRowsNibble. M = 15 as 8 + 7
// rows encoded 241+15 stripes faster than as 14 + 1, which the 16 YMM
// registers would allow (docs/KERNELS.md).
func mulRowsAffine(m *MulMatrix, refs []srcRef, dst [][]byte, n int) {
	var dsts [8]*byte
	for lo := 0; lo < len(dst); {
		k := 0
		for k < len(dsts) && lo+k < len(dst) && dst[lo+k] != nil {
			dsts[k] = &dst[lo+k][0]
			k++
		}
		if k == 0 {
			lo++ // a nil row
			continue
		}
		mulRowsGFNI(refs, &m.aff[lo], &dsts, n, k)
		lo += k
	}
}
