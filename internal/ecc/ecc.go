// Package ecc defines the shared contract implemented by ARC's four
// error-correcting codes (parity, Hamming, SEC-DED, Reed-Solomon) and
// the capability/flag vocabulary the ARC optimizer filters on.
package ecc

import "errors"

// Code is an error-correcting code over byte streams. Implementations
// are stateless after construction and safe for concurrent use. A code
// only encodes and decodes: what a configuration is called, what it
// costs and what it corrects is core.Config's to say.
type Code interface {
	// EncodedSize returns the exact encoded length in bytes for an
	// input of n bytes.
	EncodedSize(n int) int

	// EncodeTo protects data and writes the encoded stream into dst
	// when cap(dst) suffices (dst may be nil). It returns the encoded
	// slice, which has length EncodedSize(len(data)) and aliases dst
	// only when dst's capacity was used. data is not modified and must
	// not overlap dst. s provides reusable internal scratch and may be
	// nil (fresh buffers are then allocated): EncodeTo(nil, data, nil)
	// is the one-shot form.
	EncodeTo(dst, data []byte, s *Scratch) []byte

	// DecodeTo verifies encoded, corrects what it can, and writes the
	// original data (of length origLen, which the caller persists out
	// of band — ARC's container header carries it) into dst when
	// cap(dst) suffices (dst may be nil). A non-nil error means errors
	// were detected that the code could not correct; the returned
	// Report is valid either way. dst must not overlap encoded. s is
	// EncodeTo's.
	DecodeTo(dst, encoded []byte, origLen int, s *Scratch) ([]byte, Report, error)
}

// EncodeTo forwards to c.EncodeTo. Its one caller is the ECC replay in
// benchmark/trace.go; ROADMAP item 2(C) deletes both.
func EncodeTo(c Code, dst, data []byte, s *Scratch) []byte { return c.EncodeTo(dst, data, s) }

// DecodeTo forwards to c.DecodeTo, for the same caller as EncodeTo.
func DecodeTo(c Code, dst, encoded []byte, origLen int, s *Scratch) ([]byte, Report, error) {
	return c.DecodeTo(dst, encoded, origLen, s)
}

// Scratch is a grow-only arena of reusable byte buffers for the *To
// codec entry points. Each implementation addresses slots by small
// fixed indices of its own choosing; the arena never shrinks, so after
// warm-up repeated calls with the same shape allocate nothing. A
// Scratch must not be shared between concurrent calls. The zero value
// and nil are both ready to use (nil always allocates fresh buffers).
type Scratch struct {
	slots [][]byte
}

// Slot returns scratch buffer i resized to length n. Contents are
// unspecified — callers that need zeroed memory must clear it. Safe on
// a nil receiver, which degrades to a plain allocation.
func (s *Scratch) Slot(i, n int) []byte {
	if s == nil {
		return make([]byte, n)
	}
	for len(s.slots) <= i {
		s.slots = append(s.slots, nil)
	}
	s.slots[i] = GrowTo(s.slots[i], n)
	return s.slots[i]
}

// GrowTo returns b resized to length n, reusing b's storage when its
// capacity suffices and allocating otherwise. Contents are unspecified.
func GrowTo(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// Report summarizes what a DecodeTo observed.
type Report struct {
	// DetectedBlocks is the number of code blocks (parity blocks,
	// Hamming codewords, or RS devices) in which an error was detected.
	DetectedBlocks int
	// CorrectedBits is the number of bit corrections applied (for
	// Reed-Solomon, rebuilt devices count via CorrectedBlocks instead).
	CorrectedBits int
	// CorrectedBlocks is the number of code blocks fully repaired.
	CorrectedBlocks int
}

// Merge accumulates another report into r (used by parallel decodes).
func (r *Report) Merge(o Report) {
	r.DetectedBlocks += o.DetectedBlocks
	r.CorrectedBits += o.CorrectedBits
	r.CorrectedBlocks += o.CorrectedBlocks
}

// ErrUncorrectable reports that decode found errors beyond the code's
// correction ability. Wrap with context; test with errors.Is.
var ErrUncorrectable = errors.New("ecc: detected errors are uncorrectable")

// ErrTruncated reports that an encoded stream is shorter than its
// parameters require.
var ErrTruncated = errors.New("ecc: encoded stream truncated")

// Method enumerates the ECC families ARC offers (the paper's
// ARC_PARITY, ARC_HAMMING, ARC_SECDED, ARC_RS flags).
type Method uint8

const (
	MethodParity Method = iota + 1
	MethodHamming
	MethodSECDED
	MethodReedSolomon
	// MethodInterleavedSECDED is ARC's extension method: SEC-DED(72,64)
	// behind a codeword interleaver, correcting single bursts up to the
	// interleave depth at SEC-DED's storage cost.
	MethodInterleavedSECDED
)

// String returns the paper's flag spelling for the method.
func (m Method) String() string {
	switch m {
	case MethodParity:
		return "ARC_PARITY"
	case MethodHamming:
		return "ARC_HAMMING"
	case MethodSECDED:
		return "ARC_SECDED"
	case MethodReedSolomon:
		return "ARC_RS"
	case MethodInterleavedSECDED:
		return "ARC_IL_SECDED"
	default:
		return "ARC_UNKNOWN"
	}
}

// Capability is a bitmask of error-response abilities (the paper's
// ARC_DET_SPARSE, ARC_COR_SPARSE, ARC_COR_BURST flags).
type Capability uint8

const (
	// DetectSparse: detects sparse, uniformly distributed errors.
	DetectSparse Capability = 1 << iota
	// CorrectSparse: corrects sparse, uniformly distributed errors.
	CorrectSparse
	// CorrectBurst: corrects densely packed burst errors.
	CorrectBurst
)

// Has reports whether c includes every capability in want.
func (c Capability) Has(want Capability) bool { return c&want == want }

// String lists the capability flags in the paper's spelling.
func (c Capability) String() string {
	s := ""
	if c.Has(DetectSparse) {
		s += "ARC_DET_SPARSE|"
	}
	if c.Has(CorrectSparse) {
		s += "ARC_COR_SPARSE|"
	}
	if c.Has(CorrectBurst) {
		s += "ARC_COR_BURST|"
	}
	if s == "" {
		return "NONE"
	}
	return s[:len(s)-1]
}
