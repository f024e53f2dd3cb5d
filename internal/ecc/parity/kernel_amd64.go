package parity

// parityBytesAVX2 copies src, a multiple of 64 bytes, to dst and
// writes par[i] = the parity bits of the eight 8-byte blocks of
// src[64i : 64i+64], MSB-first. Implemented in kernel_amd64.s.
//
//go:noescape
func parityBytesAVX2(src, dst, par []byte)
