package hamming

// checkBytesAVX2 copies src (a multiple of 128 bytes: sixteen K=64
// codewords) to dst and writes chk[i] = the extended check byte of
// codeword i, the XOR of checkTabs[1] over its eight bytes, looked up
// by nibble in tab (nibTabs). Implemented in kernel_amd64.s.
//
//go:noescape
func checkBytesAVX2(tab *[4][64]byte, src, dst, chk []byte)
