package core

import "encoding/binary"

// voteBytes writes the bitwise majority of three equal-length replica
// slices into dst, eight bytes per iteration over uint64 words with a
// byte tail — the batched form of vote3 used on the stream verify
// path. dst may alias any of the inputs.
func voteBytes(dst, a, b, c []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		wa := binary.LittleEndian.Uint64(a[i:])
		wb := binary.LittleEndian.Uint64(b[i:])
		wc := binary.LittleEndian.Uint64(c[i:])
		binary.LittleEndian.PutUint64(dst[i:], (wa&wb)|(wa&wc)|(wb&wc))
	}
	for i := n; i < len(dst); i++ {
		dst[i] = vote3(a[i], b[i], c[i])
	}
}
