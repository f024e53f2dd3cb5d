//go:build !amd64

package parity

// parityBytesAVX2 has no kernel off amd64; gf256 never reports the avx2
// tier there, so it is never called.
func parityBytesAVX2(src, dst, par []byte) {
	panic("parity: no AVX2 kernel on this architecture")
}
