// Package reedsolomon implements ARC's strongest protection: a
// systematic Reed-Solomon erasure code over GF(2^8), the stand-in for
// the Jerasure library the paper leverages.
//
// Data is striped across K equally sized "data devices"; each stripe
// gains M parity ("code") devices computed from a Vandermonde-derived
// systematic generator matrix. A per-device CRC-32 locates corrupted
// devices — turning errors into erasures — and any M or fewer corrupted
// devices per stripe are repaired: the e corrupt data devices are solved
// from e surviving parity rows (an e x e system, see decodeStripe) and
// corrupt parity devices are simply not used. Because whole devices are
// repaired regardless of how many bits within them flipped, the code
// corrects dense burst errors, matching the paper's ARC_COR_BURST
// capability.
//
// Stripe layout: K data devices, then M parity devices, then a CRC
// table of 4 bytes per device. A corrupted CRC entry merely
// marks its (healthy) device as an erasure, which the same machinery
// repairs.
//
// The data devices are the original bytes in order, so the CRC-32C
// that EncodeTo and DecodeTo return is the data devices' CRCs joined
// with the code's precomputed shift for DeviceSize: the ones the
// checksum table holds on encode, and on decode the ones taken over
// each device's bytes in dst, after the copy or the rebuild. A device
// that the end of the data cuts short is taken over its real bytes.
package reedsolomon

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/ecc"
	"repro/internal/gf256"
)

// csBytes is the width of one device's entry in a stripe's checksum
// table: its CRC-32C, little-endian.
const csBytes = 4

// Code is a Reed-Solomon code with K data devices and M code devices
// per stripe of K*DeviceSize bytes.
type Code struct {
	K          int // data devices per stripe
	M          int // code (parity) devices per stripe
	DeviceSize int // bytes per device
	Workers    int // worker count of each pass, as ecc.Split reads it

	gen   *gf256.Matrix // (K+M) x K systematic generator
	shift ecc.CRCShift  // joins a whole device's CRC-32C to the CRC before it
	// check is the M x (K+M) parity check [P | I], P the generator's
	// parity rows: device K+p is row p applied to the data devices,
	// and row p over the whole stripe sums to 0.
	check *gf256.MulMatrix
}

// DefaultDeviceSize is used when callers pass deviceSize <= 0.
const DefaultDeviceSize = 1024

// genCache memoizes a code's matrices per (K, M): deriving the
// generator costs a K x K inversion and preparing the parity check 32
// bytes per coefficient, which would otherwise dominate small encodes.
// Cached matrices are immutable after construction.
var genCache sync.Map // genKey -> codeMatrices

type genKey struct{ k, m int }

type codeMatrices struct {
	gen   *gf256.Matrix
	check *gf256.MulMatrix
}

// New constructs a Reed-Solomon code. K and M must be positive with
// K+M <= 256 (the field order); deviceSize <= 0 selects
// DefaultDeviceSize.
func New(k, m, deviceSize, workers int) (*Code, error) {
	if deviceSize <= 0 {
		deviceSize = DefaultDeviceSize
	}
	cached, ok := genCache.Load(genKey{k, m})
	if !ok {
		gen, err := gf256.RSGeneratorMatrix(k, m)
		if err != nil {
			return nil, fmt.Errorf("reedsolomon: %w", err)
		}
		check := gf256.NewMatrix(m, k+m)
		for p := 0; p < m; p++ {
			copy(check.Row(p), gen.Row(k+p))
			check.Set(p, k+p, 1)
		}
		cached = codeMatrices{gen, gf256.NewMulMatrix(check)}
		genCache.Store(genKey{k, m}, cached)
	}
	cm := cached.(codeMatrices)
	c := &Code{K: k, M: m, DeviceSize: deviceSize, Workers: workers, gen: cm.gen, check: cm.check}
	c.shift.Init(deviceSize)
	return c, nil
}

// deviceOK reports whether dev matches its checksum table entry cs.
func deviceOK(dev, cs []byte) bool {
	return crc32.Checksum(dev, ecc.Castagnoli) == binary.LittleEndian.Uint32(cs)
}

// joinData continues crc over a stripe's data: whole devices, whose
// CRC-32Cs are sums, then r bytes more, whose CRC-32C is part.
func (c *Code) joinData(crc uint32, sums []uint32, part uint32, r int) uint32 {
	for _, sum := range sums {
		crc = c.shift.Combine(crc, sum)
	}
	if r > 0 {
		crc = ecc.CombineCRC(crc, part, r)
	}
	return crc
}

func (c *Code) stripeDataBytes() int { return c.K * c.DeviceSize }

func (c *Code) stripeEncBytes() int {
	return (c.K + c.M) * (c.DeviceSize + csBytes)
}

func (c *Code) stripes(n int) int {
	if n == 0 {
		return 0
	}
	return (n + c.stripeDataBytes() - 1) / c.stripeDataBytes()
}

// EncodedSize implements ecc.Code.
func (c *Code) EncodedSize(n int) int { return c.stripes(n) * c.stripeEncBytes() }

// EncodeTo implements ecc.Code. The stripe encoder assigns every
// output byte (including explicit zero padding of a partial final
// stripe), so a reused dst needs no up-front clearing.
func (c *Code) EncodeTo(dst, data []byte, _ *ecc.Scratch) ([]byte, uint32) {
	out := ecc.GrowTo(dst, c.EncodedSize(len(data)))
	p := ecc.Split(c, (*Code).encodeRange, ecc.Args{Dst: out, Src: data}, c.stripes(len(data)), c.Workers)
	return out, p.CRC
}

// encodeRange encodes stripes [lo, hi) of a.Src into a.Dst and returns
// the CRC-32C of their data; safe to run concurrently on disjoint
// ranges.
func (c *Code) encodeRange(a ecc.Args, lo, hi int) ecc.Part {
	n := len(a.Src)
	sdb, seb := c.stripeDataBytes(), c.stripeEncBytes()
	var p ecc.Part
	for s := lo; s < hi; s++ {
		src := a.Src[min(s*sdb, n):min((s+1)*sdb, n)]
		p.CRC = c.encodeStripe(src, a.Dst[s*seb:(s+1)*seb], p.CRC)
		p.Len += len(src)
	}
	return p
}

// encodeStripe fills one encoded stripe from up to stripeDataBytes of
// source data (shorter input is zero-padded): the parity devices in one
// MulRows, data devices in, parity devices out. It returns crc
// continued over src.
func (c *Code) encodeStripe(src, dst []byte, crc uint32) uint32 {
	ds := c.DeviceSize
	devices := c.placeData(src, dst)
	var data, parity [gf256.Order][]byte
	for j := range c.K {
		data[j] = devices[j*ds : (j+1)*ds]
	}
	for p := range c.M {
		parity[p] = devices[(c.K+p)*ds : (c.K+p+1)*ds]
	}
	c.check.MulRows(data[:c.K], parity[:c.M])
	return c.putChecksums(dst, crc, len(src))
}

// placeData copies up to stripeDataBytes of source data into the data
// devices of the encoded stripe dst and returns its devices.
func (c *Code) placeData(src, dst []byte) []byte {
	copy(dst, src)
	if len(src) < c.K*c.DeviceSize {
		// Zero-pad the final partial stripe explicitly: dst may be a
		// reused buffer with stale contents.
		clear(dst[len(src) : c.K*c.DeviceSize])
	}
	return dst[:(c.K+c.M)*c.DeviceSize]
}

// putChecksums writes the checksum table of the encoded stripe dst,
// whose first n bytes are data, and returns crc continued over them.
// A device that n cuts short is taken over its data bytes and then
// continued over its padding, one pass.
func (c *Code) putChecksums(dst []byte, crc uint32, n int) uint32 {
	ds, total := c.DeviceSize, c.K+c.M
	full, end := n/ds, (n+ds-1)/ds
	var sums [gf256.Order]uint32
	crcDevices(sums[:full], dst, ds)
	crcDevices(sums[end:total], dst[end*ds:], ds)
	var part uint32
	if end > full {
		dev := dst[full*ds : end*ds]
		part = crc32.Checksum(dev[:n%ds], ecc.Castagnoli)
		sums[full] = crc32.Update(part, ecc.Castagnoli, dev[n%ds:])
	}
	table := dst[total*ds:]
	for d, sum := range sums[:total] {
		binary.LittleEndian.PutUint32(table[d*csBytes:], sum)
	}
	return c.joinData(crc, sums[:full], part, n%ds)
}

// crcDevices sets sums[i] to the CRC-32C of the ds bytes at i*ds in
// region, for every i < len(sums): consecutive devices of a stripe,
// three at a time through crc3.
func crcDevices(sums []uint32, region []byte, ds int) {
	i := 0
	for ; i+3 <= len(sums); i += 3 {
		sums[i], sums[i+1], sums[i+2] = crc3(region[i*ds:], ds)
	}
	for ; i < len(sums); i++ {
		sums[i] = crc32.Checksum(region[i*ds:(i+1)*ds], ecc.Castagnoli)
	}
}

// EncodeRef is the retained reference implementation of EncodeTo:
// serial, and one mul per (parity, data device) pair, the stripe
// encoder this package shipped first, on the slice multiply-accumulate
// mul (gf256.MulSlice, or gf256.MulSliceRef for a scalar oracle). Kept
// for differential tests and as the baseline of
// BenchmarkKernelRSEncode; like EncodeTo it writes into dst when its
// capacity suffices.
func (c *Code) EncodeRef(dst, data []byte, mul func(c byte, src, dst []byte)) []byte {
	n := len(data)
	ds, sdb, seb := c.DeviceSize, c.stripeDataBytes(), c.stripeEncBytes()
	out := ecc.GrowTo(dst, c.EncodedSize(n))
	for s := range c.stripes(n) {
		stripe := out[s*seb : (s+1)*seb]
		devices := c.placeData(data[min(s*sdb, n):min((s+1)*sdb, n)], stripe)
		for p := range c.M {
			pdev := devices[(c.K+p)*ds : (c.K+p+1)*ds]
			clear(pdev)
			for j := range c.K {
				mul(c.gen.At(c.K+p, j), devices[j*ds:(j+1)*ds], pdev)
			}
		}
		c.putChecksums(stripe, 0, 0)
	}
	return out
}

// DecodeTo implements ecc.Code. With a warm s neither the clean
// path nor the repair path allocates beyond growing dst: a damaged
// stripe's working storage comes from s. With Workers > 1 each worker
// range brings its own scratch instead, allocated only if the range
// holds damage.
func (c *Code) DecodeTo(dst, encoded []byte, origLen int, s *ecc.Scratch) ([]byte, uint32, ecc.Report, error) {
	if err := c.checkLen(encoded, origLen); err != nil {
		return nil, 0, ecc.Report{}, err
	}
	out := ecc.GrowTo(dst, origLen)
	a := ecc.Args{Dst: out, Src: encoded, Scratch: s}
	p := ecc.Split(c, (*Code).decodeRange, a, c.stripes(origLen), c.Workers)
	rep, err := c.report(p)
	return out, p.CRC, rep, err
}

// DecodeRef is the retained reference implementation of DecodeTo: serial,
// allocating, every stripe through decodeStripeRef. Kept for
// differential tests and as the baseline of BenchmarkKernelRSRepair.
func (c *Code) DecodeRef(encoded []byte, origLen int) ([]byte, ecc.Report, error) {
	if err := c.checkLen(encoded, origLen); err != nil {
		return nil, ecc.Report{}, err
	}
	out := make([]byte, origLen)
	sdb := c.stripeDataBytes()
	seb := c.stripeEncBytes()
	var p ecc.Part
	for s := 0; s < c.stripes(origLen); s++ {
		dst := out[min(s*sdb, origLen):min((s+1)*sdb, origLen)]
		d, co, err := c.decodeStripeRef(encoded[s*seb:(s+1)*seb], dst)
		tally(&p, d, co, err)
	}
	rep, err := c.report(p)
	return out, rep, err
}

// checkLen rejects a stream too short to hold origLen encoded bytes.
func (c *Code) checkLen(encoded []byte, origLen int) error {
	if origLen < 0 || len(encoded) < c.EncodedSize(origLen) {
		return fmt.Errorf("%w: need %d bytes, have %d", ecc.ErrTruncated, c.EncodedSize(origLen), len(encoded))
	}
	return nil
}

// report turns a decode's part into DecodeTo's Report and error.
func (c *Code) report(p ecc.Part) (ecc.Report, error) {
	if p.Failed > 0 {
		return p.Report, fmt.Errorf("%w: %d stripe(s) had more than %d corrupt devices", ecc.ErrUncorrectable, p.Failed, c.M)
	}
	return p.Report, nil
}

// tally counts a stripe's decode into p.
func tally(p *ecc.Part, detected, corrected int, err error) {
	p.Report.DetectedBlocks += detected
	p.Report.CorrectedBlocks += corrected
	if err != nil {
		p.Failed++
	}
}

// decodeRange decodes stripes [lo, hi) of the encoded stream a.Src
// into a.Dst, returning what it saw and the CRC-32C of the range's data
// as written; safe to run concurrently on disjoint ranges as long as
// each call has its own a.Scratch. A nil a.Scratch stands for a
// range-local scratch, which stays empty (and on the stack) unless a
// stripe of the range is damaged.
func (c *Code) decodeRange(a ecc.Args, lo, hi int) ecc.Part {
	var local ecc.Scratch
	s := a.Scratch
	if s == nil {
		s = &local
	}
	out := a.Dst
	n := len(out)
	sdb := c.stripeDataBytes()
	seb := c.stripeEncBytes()
	var p ecc.Part
	for st := lo; st < hi; st++ {
		dst := out[min(st*sdb, n):min((st+1)*sdb, n)]
		d, co, crc, err := c.decodeStripe(a.Src[st*seb:(st+1)*seb], dst, p.CRC, s)
		p.CRC, p.Len = crc, p.Len+len(dst)
		tally(&p, d, co, err)
	}
	return p
}

// decodeStripe verifies one stripe and writes the recovered data
// region into dst (len(dst) <= stripeDataBytes for the final stripe).
// It returns the number of corrupt devices detected and repaired, and
// crc continued over dst as written; the stripe itself is never
// modified.
func (c *Code) decodeStripe(stripe, dst []byte, crc uint32, s *ecc.Scratch) (detected, corrected int, _ uint32, err error) {
	ds := c.DeviceSize
	total := c.K + c.M
	devices := stripe[:total*ds]
	table := stripe[total*ds:]
	// Healthy data devices pass through as they are; for a clean stripe
	// that is the whole decode. Past M corrupt devices it is the best
	// effort: callers may inspect the raw data region. The devices are
	// checked after the copy, each byte where the output holds it: in
	// dst, or past its end (padding, parity devices) in the stripe.
	n := copy(dst, devices)
	full, end := n/ds, (n+ds-1)/ds
	var sums [gf256.Order]uint32
	crcDevices(sums[:full], dst, ds)
	crcDevices(sums[end:total], devices[end*ds:], ds)
	var part uint32 // of the data bytes of a device n cuts short
	if end > full {
		part = crc32.Checksum(dst[full*ds:], ecc.Castagnoli)
		sums[full] = crc32.Update(part, ecc.Castagnoli, devices[n:end*ds])
	}
	var badBuf [gf256.Order]byte // device indices fit a byte: K+M <= 256
	bad := badBuf[:0]
	for d, sum := range sums[:total] {
		if sum != binary.LittleEndian.Uint32(table[d*csBytes:]) {
			bad = append(bad, byte(d))
		}
	}
	detected = len(bad)
	// bad is ascending, so the corrupt data devices lead it. Corrupt
	// parity is repairable but needs no rebuilding to produce output:
	// with no corrupt data device the copy above already was the repair.
	e := 0
	for e < detected && int(bad[e]) < c.K {
		e++
	}
	switch {
	case detected > c.M:
		err = ecc.ErrUncorrectable
	case e > 0 && !c.solveStripe(devices, dst, bad[:e], bad[e:], s):
		// Cannot happen for an MDS code; treat defensively as failure.
		err = ecc.ErrUncorrectable
	case e > 0:
		// The rebuilt devices' CRCs, over what solveStripe wrote; it
		// writes no device past the end of dst.
		for _, d := range bad[:e] {
			lo := int(d) * ds
			if lo >= n {
				break
			}
			if sum := crc32.Checksum(dst[lo:min(lo+ds, n)], ecc.Castagnoli); lo+ds <= n {
				sums[d] = sum
			} else {
				part = sum
			}
		}
	}
	crc = c.joinData(crc, sums[:full], part, n%ds)
	if err != nil {
		return detected, 0, crc, err
	}
	return detected, detected, crc, nil
}

// slotRepair is the one ecc.Scratch slot this package uses: the
// working storage of solveStripe, sized for the worst case (M corrupt
// data devices) so that it grows once per Scratch. In order: the e x e
// system and its inverse (M*M bytes each), then the syndromes (M
// devices).
const slotRepair = 0

func (c *Code) repairBytes() int { return 2*c.M*c.M + c.M*c.DeviceSize }

// solveStripe rebuilds the e = len(badData) corrupt data devices of a
// stripe into dst, which already holds the stripe's raw data region.
// badData and badParity list the corrupt devices in ascending order, at
// most M together. It reports false if the system turned out singular.
//
// Every healthy parity device p satisfies
//
//	parity_p = sum_j gen[K+p][j] * data_j
//
// so moving the healthy data devices to the left leaves, for e chosen
// healthy parity rows, e equations in the e missing devices:
//
//	S_a = parity_a - sum_{good j} gen[K+a][j]*data_j = sum_b gen[K+a][bad_b]*data_bad_b
//
// S_a is row a of the parity check [P | I] applied to the healthy data
// devices and parity device a (coefficient 1), so the e syndromes are
// one gf256.MulRows over the stripe with the corrupt and unchosen
// devices left out. The e x e matrix is inverted on scratch storage,
// and data_bad = inv * S lands directly in dst. That is e*K + e*e
// slice multiplies and an O(e^3) inversion against the 2*K^3 byte
// operations of inverting K generator rows (decodeStripeRef): for 7 of
// 241+15 with 1 KiB devices about 1.7 M byte multiplies instead of
// 30 M.
func (c *Code) solveStripe(devices, dst, badData, badParity []byte, s *ecc.Scratch) bool {
	ds := c.DeviceSize
	e := len(badData)
	work := s.Slot(slotRepair, c.repairBytes())
	mat, inv, syn := work[:e*e], work[c.M*c.M:][:e*e], work[2*c.M*c.M:][:e*ds]

	// src holds the sources of the syndromes by parity check column,
	// syns the syndromes by row: the healthy data devices, then the
	// first e healthy parity devices (at most M corrupt devices leaves
	// that many), each with its own syndrome.
	var src, syns [gf256.Order][]byte
	for j := range c.K {
		src[j] = devices[j*ds : (j+1)*ds]
	}
	for _, d := range badData {
		src[d] = nil
	}
	for p, a := 0, 0; a < e; p++ {
		if len(badParity) > 0 && int(badParity[0]) == c.K+p {
			badParity = badParity[1:]
			continue
		}
		grow := c.gen.Row(c.K + p)
		for b, d := range badData {
			mat[a*e+b] = grow[d]
		}
		src[c.K+p] = devices[(c.K+p)*ds : (c.K+p+1)*ds]
		syns[p] = syn[a*ds : (a+1)*ds]
		a++
	}
	if gf256.InvertInPlace(mat, inv, e) != nil {
		return false
	}
	c.check.MulRows(src[:c.K+c.M], syns[:c.M])
	// data_bad_b = sum_a inv[b][a] * S_a, written over the corrupt bytes
	// already in dst. Only the bytes dst has room for are computed: in a
	// final partial stripe a device may straddle origLen or lie past it.
	for b, d := range badData {
		lo := int(d) * ds
		if lo >= len(dst) {
			break
		}
		rebuilt := dst[lo:min(lo+ds, len(dst))]
		n := len(rebuilt)
		gf256.MulSliceAssign(inv[b*e], syn[:n], rebuilt)
		for a := 1; a < e; a++ {
			gf256.MulSlice(inv[b*e+a], syn[a*ds:a*ds+n], rebuilt)
		}
	}
	return true
}

// decodeStripeRef is the retained reference for decodeStripe, the
// decoder this package shipped first: pick K healthy devices, invert
// their K x K generator rows (O(K^3) per damaged stripe) and multiply
// every corrupt data device back out, through a map, three allocations
// and a scratch copy of the data region. Same contract as decodeStripe
// and no code in common with it below the gf256 slice kernels, which
// is what makes it the oracle of FuzzRSRepair and the erasure-set
// tables.
func (c *Code) decodeStripeRef(stripe, dst []byte) (detected, corrected int, err error) {
	ds := c.DeviceSize
	total := c.K + c.M
	devices := stripe[:total*ds]
	crcs := stripe[total*ds:]
	var bad []int
	for d := 0; d < total; d++ {
		if !deviceOK(devices[d*ds:(d+1)*ds], crcs[d*csBytes:]) {
			bad = append(bad, d)
		}
	}
	if len(bad) == 0 {
		copy(dst, devices)
		return 0, 0, nil
	}
	detected = len(bad)
	if len(bad) > c.M {
		// Best effort: return the raw data region so callers can
		// inspect, but flag the stripe as unrecoverable.
		copy(dst, devices)
		return detected, 0, ecc.ErrUncorrectable
	}
	isBad := make(map[int]bool, len(bad))
	for _, d := range bad {
		isBad[d] = true
	}
	// Select the first K healthy devices and invert their generator
	// rows: data = inv * healthy.
	good := make([]int, 0, c.K)
	for d := 0; d < total && len(good) < c.K; d++ {
		if !isBad[d] {
			good = append(good, d)
		}
	}
	sub := c.gen.SubMatrix(good)
	inv, ierr := sub.Invert()
	if ierr != nil {
		// Cannot happen for an MDS code; treat defensively as failure.
		copy(dst, devices)
		return detected, 0, ecc.ErrUncorrectable
	}
	// Rebuild only the bad *data* devices; parity devices need no
	// reconstruction to produce output. The input stripe is never
	// modified: repairs land in a scratch copy of the data region.
	scratch := make([]byte, c.K*ds)
	copy(scratch, devices[:c.K*ds])
	for _, d := range bad {
		if d >= c.K {
			corrected++ // parity device: repairable, not needed
			continue
		}
		rebuilt := scratch[d*ds : (d+1)*ds]
		row := inv.Row(d)
		// First term assigns (no zeroing pass needed), the rest
		// accumulate — same row-major shape as encodeStripe.
		gf256.MulSliceAssign(row[0], devices[good[0]*ds:(good[0]+1)*ds], rebuilt)
		for j := 1; j < len(good); j++ {
			g := good[j]
			gf256.MulSlice(row[j], devices[g*ds:(g+1)*ds], rebuilt)
		}
		corrected++
	}
	copy(dst, scratch)
	return detected, corrected, nil
}

var _ ecc.Code = (*Code)(nil)
