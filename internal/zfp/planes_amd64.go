package zfp

// transposePlanesAVX2 sets planes[p] from u (16 or 64 coefficients):
// bit i of planes[p] is bit base+p of u[i]. Implemented in
// planes_amd64.s.
//
//go:noescape
func transposePlanesAVX2(planes *[8]uint64, u []uint64, base int)

// untransposePlanesAVX2 ORs bit i of planes[p] into bit base+p of u[i]
// (16 or 64 coefficients). Implemented in planes_amd64.s.
//
//go:noescape
func untransposePlanesAVX2(planes *[8]uint64, u []uint64, base int)
