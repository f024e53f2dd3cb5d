//go:build !amd64

package hamming

// checkBytesAVX2 has no kernel off amd64; gf256 never reports the avx2
// tier there, so it is never called.
func checkBytesAVX2(tab *[4][64]byte, src, dst, chk []byte) {
	panic("hamming: no AVX2 kernel on this architecture")
}
