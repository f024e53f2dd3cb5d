package main

// Fault constructors with known ground truth, built from the layouts
// in docs/FORMAT.md. A pattern is within a code's budget when the
// decoder must repair it and report exactly what was injected, and
// over budget when the decoder must refuse it.
//
//	secded64 payload: OrigLen data bytes verbatim, then one check byte
//	per 8-byte block. Codeword b is data bytes [8b, 8b+8) plus check
//	byte OrigLen+b; one flipped bit per codeword is within budget, two
//	are detected but not correctable.
//
//	rs-m<M> payload: stripes of 256 devices of DevSize bytes (256-M
//	data, M parity) followed by 256 4-byte CRC-32C checksums. Damage to
//	at most M devices of a stripe is within budget, whatever its extent
//	inside each device.

import (
	"bytes"
	"fmt"
	"math/rand"

	arc "repro"
	"repro/internal/ecc"
)

// repairs is what a decoder must report for an injected pattern:
// corrected bits, and blocks (codewords or devices) both detected and
// corrected.
type repairs struct {
	Bits   int `json:"bits"`
	Blocks int `json:"blocks"`
}

func (r *repairs) add(o repairs) { r.Bits += o.Bits; r.Blocks += o.Blocks }

// matches reports whether a decoder's report is exactly the injected
// pattern: nothing missed, nothing invented.
func (r repairs) matches(detected, correctedBits, correctedBlocks int) bool {
	return detected == r.Blocks && correctedBlocks == r.Blocks && correctedBits == r.Bits
}

const (
	headerReplicaBytes = arc.ContainerOverheadBytes / 3
	rsDevices          = 256 // data + parity devices per stripe
	rsChecksumBytes    = 4
	burstBytes         = 64
)

// chunk is one container of an ARC stream held in memory.
type chunk struct {
	info    arc.ChunkInfo
	header  []byte // the three header replicas
	payload []byte // the ECC-encoded payload
}

// chunksOf locates every data chunk of stream. The slices alias
// stream, so edits through them edit the stream.
func chunksOf(stream []byte) ([]chunk, error) {
	infos, err := arc.InspectStream(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	chunks := make([]chunk, len(infos))
	off := 0
	for i, ci := range infos {
		end := off + arc.ContainerOverheadBytes + ci.EncLen
		if end > len(stream) {
			return nil, fmt.Errorf("chunk %d runs past the stream", i)
		}
		chunks[i] = chunk{info: ci, header: stream[off : off+arc.ContainerOverheadBytes], payload: stream[off+arc.ContainerOverheadBytes : end]}
		off = end
	}
	return chunks, nil
}

func (c chunk) isSecded64() bool {
	return c.info.Config.Method == ecc.MethodSECDED && c.info.Config.Param == 64
}

func (c chunk) isRS() bool { return c.info.Config.Method == ecc.MethodReedSolomon }

// codewords is the number of secded64 codewords in the chunk.
func (c chunk) codewords() int { return (c.info.OrigLen + 7) / 8 }

// flipInCodeword flips bit `bit` of secded64 codeword cw, numbering
// the codeword's data bits first and its eight check bits after them.
func (c chunk) flipInCodeword(cw, bit int) {
	lo := cw * 8
	dataBits := (min(lo+8, c.info.OrigLen) - lo) * 8
	at := lo*8 + bit
	if bit >= dataBits {
		at = (c.info.OrigLen+cw)*8 + bit - dataBits
	}
	c.payload[at>>3] ^= 0x80 >> (at & 7)
}

// codewordBits is how many stored bits codeword cw has (the last
// codeword of a chunk may hold fewer than eight data bytes).
func (c chunk) codewordBits(cw int) int {
	lo := cw * 8
	return (min(lo+8, c.info.OrigLen)-lo)*8 + 8
}

// flipOne flips one random bit of codeword cw: within budget.
func (c chunk) flipOne(cw int, rng *rand.Rand) {
	c.flipInCodeword(cw, rng.Intn(c.codewordBits(cw)))
}

// flipTwo flips two distinct random bits of codeword cw: over budget.
func (c chunk) flipTwo(cw int, rng *rand.Rand) {
	n := c.codewordBits(cw)
	first := rng.Intn(n)
	second := rng.Intn(n - 1)
	if second >= first {
		second++
	}
	c.flipInCodeword(cw, first)
	c.flipInCodeword(cw, second)
}

// stripes is the number of Reed-Solomon stripes in the chunk.
func (c chunk) stripes() int {
	return c.info.EncLen / (rsDevices * (c.info.DevSize + rsChecksumBytes))
}

// burstStripe damages `devices` distinct devices of one stripe, each
// with a burst of up to burstBytes corrupted bytes.
func (c chunk) burstStripe(stripe, devices int, rng *rand.Rand) {
	ds := c.info.DevSize
	base := stripe * rsDevices * (ds + rsChecksumBytes)
	n := min(burstBytes, ds)
	for _, d := range rng.Perm(rsDevices)[:devices] {
		at := base + d*ds + rng.Intn(ds-n+1)
		for i := 0; i < n; i++ {
			c.payload[at+i] ^= byte(1 + rng.Intn(255))
		}
	}
}

// damageHeaderReplica flips a few bits in one of the chunk's three
// header replicas; the other two outvote it and no report counts it.
func (c chunk) damageHeaderReplica(rng *rand.Rand) {
	r := rng.Intn(3)
	for i := 0; i < 3; i++ {
		bit := rng.Intn(headerReplicaBytes * 8)
		c.header[r*headerReplicaBytes+bit>>3] ^= 0x80 >> (bit & 7)
	}
}

// distinct draws n different values from [0, total), n <= total, in
// time proportional to n when n is small beside total.
func distinct(rng *rand.Rand, n, total int) []int {
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for len(out) < n {
		v := rng.Intn(total)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// sparseFlips flips one bit in each of n distinct secded64 codewords
// chosen uniformly over the whole stream.
func sparseFlips(chunks []chunk, n int, rng *rand.Rand) (repairs, error) {
	total := 0
	for _, c := range chunks {
		if !c.isSecded64() {
			return repairs{}, fmt.Errorf("sparse flips need secded64 chunks, found %s", c.info.Config)
		}
		total += c.codewords()
	}
	n = min(n, total)
	for _, g := range distinct(rng, n, total) {
		for _, c := range chunks {
			if g < c.codewords() {
				c.flipOne(g, rng)
				break
			}
			g -= c.codewords()
		}
	}
	return repairs{Bits: n, Blocks: n}, nil
}

// stripeBursts damages `devices` devices in every Reed-Solomon stripe
// of the stream.
func stripeBursts(chunks []chunk, devices int, rng *rand.Rand) (repairs, error) {
	var want repairs
	for _, c := range chunks {
		if !c.isRS() || devices > c.info.Config.Param {
			return repairs{}, fmt.Errorf("%d-device bursts need Reed-Solomon chunks with at least that many parity devices, found %s", devices, c.info.Config)
		}
		for s := 0; s < c.stripes(); s++ {
			c.burstStripe(s, devices, rng)
			want.Blocks += devices
		}
	}
	return want, nil
}

// withinBudget damages one container with a small correctable pattern
// for its code (1-3 flipped codewords or burst devices).
func withinBudget(c chunk, rng *rand.Rand) repairs {
	n := 1 + rng.Intn(3)
	if c.isRS() {
		c.burstStripe(rng.Intn(c.stripes()), n, rng)
		return repairs{Blocks: n}
	}
	n = min(n, c.codewords())
	for _, cw := range distinct(rng, n, c.codewords()) {
		c.flipOne(cw, rng)
	}
	return repairs{Bits: n, Blocks: n}
}

// overBudget damages one container beyond its code's budget: a double
// flip in one secded64 codeword, or one device more than a stripe has
// parity for.
func overBudget(c chunk, rng *rand.Rand) {
	if c.isRS() {
		c.burstStripe(rng.Intn(c.stripes()), c.info.Config.Param+1, rng)
		return
	}
	c.flipTwo(rng.Intn(c.codewords()), rng)
}
