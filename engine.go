package arc

// This file exposes the ARC Engine functions of the paper's Table 1:
// direct, constraint-free access to each ECC codec for developers who
// integrate ARC at a lower level (e.g. as the last stage of a lossy
// compression pipeline). Unlike ARC.Encode, these return raw ECC
// streams without the self-describing container, so callers must keep
// the original length (and parameters) themselves.

import (
	"repro/internal/ecc"
	"repro/internal/ecc/hamming"
	"repro/internal/ecc/parity"
	"repro/internal/ecc/reedsolomon"
)

// Report re-exports the decode report type.
type Report = ecc.Report

// encodeOnly and decodeOnly drop the CRC-32C a code returns beside its
// output: a raw ECC stream carries no digest to build from it.
func encodeOnly(out []byte, _ uint32) []byte { return out }

func decodeOnly(out []byte, _ uint32, rep Report, err error) ([]byte, Report, error) {
	return out, rep, err
}

// ParityEncode (arc_parity_encode) protects data with one even parity
// bit per blockBytes of data.
func ParityEncode(data []byte, blockBytes, workers int) []byte {
	return encodeOnly(parity.New(blockBytes, workers).EncodeTo(nil, data, nil))
}

// ParityDecode (arc_parity_decode) verifies a parity stream. Parity
// detects but cannot correct: on any mismatch the data is returned
// together with an error wrapping ecc.ErrUncorrectable.
func ParityDecode(encoded []byte, origLen, blockBytes, workers int) ([]byte, Report, error) {
	return decodeOnly(parity.New(blockBytes, workers).DecodeTo(nil, encoded, origLen, nil))
}

// HammingEncode (arc_hamming_encode) protects data with Hamming
// codewords over dataBits-wide blocks (8 or 64).
func HammingEncode(data []byte, dataBits, workers int) []byte {
	return encodeOnly(hamming.New(dataBits, workers).EncodeTo(nil, data, nil))
}

// HammingDecode (arc_hamming_decode) corrects single-bit errors per
// codeword.
func HammingDecode(encoded []byte, origLen, dataBits, workers int) ([]byte, Report, error) {
	return decodeOnly(hamming.New(dataBits, workers).DecodeTo(nil, encoded, origLen, nil))
}

// SecdedEncode (arc_secded_encode) protects data with SEC-DED
// (extended Hamming) codewords over dataBits-wide blocks (8 or 64).
func SecdedEncode(data []byte, dataBits, workers int) []byte {
	return encodeOnly(hamming.NewSECDED(dataBits, workers).EncodeTo(nil, data, nil))
}

// SecdedDecode (arc_secded_decode) corrects single-bit and detects
// double-bit errors per codeword.
func SecdedDecode(encoded []byte, origLen, dataBits, workers int) ([]byte, Report, error) {
	return decodeOnly(hamming.NewSECDED(dataBits, workers).DecodeTo(nil, encoded, origLen, nil))
}

// ReedSolomonEncode (arc_reed_solomon_encode) stripes data over k data
// devices plus m code devices of deviceSize bytes each (deviceSize <= 0
// selects the default).
func ReedSolomonEncode(data []byte, k, m, deviceSize, workers int) ([]byte, error) {
	c, err := reedsolomon.New(k, m, deviceSize, workers)
	if err != nil {
		return nil, err
	}
	return encodeOnly(c.EncodeTo(nil, data, nil)), nil
}

// ReedSolomonDecode (arc_reed_solomon_decode) locates corrupt devices
// via their checksums and rebuilds up to m of them per stripe.
func ReedSolomonDecode(encoded []byte, origLen, k, m, deviceSize, workers int) ([]byte, Report, error) {
	c, err := reedsolomon.New(k, m, deviceSize, workers)
	if err != nil {
		return nil, Report{}, err
	}
	return decodeOnly(c.DecodeTo(nil, encoded, origLen, nil))
}
