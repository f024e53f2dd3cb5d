// Custom: registering a user-defined ECC family — the API the paper
// lists as future work. This example adds "dup", a duplication code
// with per-copy checksums (2x overhead, burst-tolerant up to half the
// stream), and shows ARC training it, selecting it under constraints,
// and decoding it transparently via the container's method id.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"math/rand"

	arc "repro"
	"repro/internal/ecc"
)

// dupCode stores the payload twice, each copy ending in a CRC-32 so
// decode knows which copy to trust. A code only encodes and decodes:
// the family's name, overhead and capabilities are declared once, in
// its registration below. Like the built-ins it builds its results in
// dst; a code that returns storage of its own is copied into place.
// Both methods also return the CRC-32C (ecc.Castagnoli) of the original
// bytes. ARC takes that CRC again itself for a registered code, so a
// code that has none at hand may return 0.
type dupCode struct{}

func (dupCode) EncodedSize(n int) int { return 2 * (n + 4) }

func (c dupCode) EncodeTo(dst, data []byte, _ *ecc.Scratch) ([]byte, uint32) {
	out := ecc.GrowTo(dst, c.EncodedSize(len(data)))
	sum := crc32.ChecksumIEEE(data)
	half := len(data) + 4
	for copyN := 0; copyN < 2; copyN++ {
		copy(out[copyN*half:], data)
		binary.LittleEndian.PutUint32(out[copyN*half+len(data):], sum)
	}
	return out, 0
}

func (c dupCode) DecodeTo(dst, enc []byte, origLen int, _ *ecc.Scratch) ([]byte, uint32, ecc.Report, error) {
	var rep ecc.Report
	if len(enc) < c.EncodedSize(origLen) {
		return nil, 0, rep, ecc.ErrTruncated
	}
	half := origLen + 4
	for copyN := 0; copyN < 2; copyN++ {
		payload := enc[copyN*half : copyN*half+origLen]
		if crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(enc[copyN*half+origLen:]) {
			if copyN > 0 {
				rep.DetectedBlocks, rep.CorrectedBlocks = 1, 1
			}
			return append(dst[:0], payload...), 0, rep, nil
		}
	}
	rep.DetectedBlocks = 2
	return append(dst[:0], enc[:origLen]...), 0, rep, ecc.ErrUncorrectable
}

func main() {
	err := arc.RegisterCustomMethod(arc.CustomMethod{
		ID:     arc.CustomMethodBase,
		Name:   "dup",
		Params: []int{1},
		// Asymptotic: the second copy; the two 4-byte CRCs vanish as the
		// chunk grows.
		Overhead: func(int) float64 { return 1.0 },
		Caps:     ecc.DetectSparse | ecc.CorrectSparse | ecc.CorrectBurst,
		Build: func(param, workers, devSize int) (ecc.Code, error) {
			return dupCode{}, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	a, err := arc.Init(arc.AnyThreads)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	fmt.Println("registered custom family 'dup'; engine trained it like any built-in")

	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)

	// Pin ARC to the custom family via the resiliency constraint.
	enc, err := a.Encode(data, arc.AnyMem, arc.AnyBW, arc.WithMethods(arc.CustomMethodBase))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded with %s (overhead %.0f%%)\n", enc.Choice.Config, 100*enc.ActualOverhead)

	// Wreck the entire first copy; decode falls over to the second.
	for i := 0; i < len(data)/2; i++ {
		enc.Encoded[arc.ContainerOverheadBytes+i] ^= 0xFF
	}
	dec, err := a.Decode(enc.Encoded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("half the stream destroyed; recovered intact = %v (via copy #2)\n",
		bytes.Equal(dec.Data, data))
}
