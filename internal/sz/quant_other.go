//go:build !amd64

package sz

// The Lorenzo kernels have no vector form off amd64; gf256 never
// reports the avx2 tier there, so neither is ever called.

func lorenzo2DAVX2(src, recon *float64, syms *int32, above *float64, st *[32]float64, width, steps int, eb, invTwoEB, twoEB float64) int {
	panic("sz: no AVX2 kernel on this architecture")
}

func lorenzo3DAVX2(src, recon *float64, syms *int32, above, back, backAbove *float64, st *[32]float64, width, steps int, eb, invTwoEB, twoEB float64) int {
	panic("sz: no AVX2 kernel on this architecture")
}
