package sz

// lorenzo2DAVX2 quantizes steps columns of eight skewed rows of a 2-D
// field of the given width, lane 0 at src, recon and syms; st holds
// each lane's left and up-left at the first step. It returns how many
// symbols it set to 0. Implemented in quant_amd64.s.
//
//go:noescape
func lorenzo2DAVX2(src, recon *float64, syms *int32, above *float64, st *[32]float64, width, steps int, eb, invTwoEB, twoEB float64) int

// lorenzo3DAVX2 is lorenzo2DAVX2 for eight rows of a plane of a 3-D
// field, back at lane 0's row in the previous plane and backAbove at
// the row above it; st adds each lane's back-left and back-up-left.
// Implemented in quant_amd64.s.
//
//go:noescape
func lorenzo3DAVX2(src, recon *float64, syms *int32, above, back, backAbove *float64, st *[32]float64, width, steps int, eb, invTwoEB, twoEB float64) int
