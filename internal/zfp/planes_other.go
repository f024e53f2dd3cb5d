//go:build !amd64

package zfp

// The AVX2 transposes have no kernel off amd64; gf256 never reports
// the avx2 tier there, so neither is ever called.

func transposePlanesAVX2(planes *[8]uint64, u []uint64, base int) {
	panic("zfp: no AVX2 kernel on this architecture")
}

func untransposePlanesAVX2(planes *[8]uint64, u []uint64, base int) {
	//arcvet:ignore panicfact gf256 never reports avx2 off amd64, so vector is false and decodePlanes never calls this
	panic("zfp: no AVX2 kernel on this architecture")
}
