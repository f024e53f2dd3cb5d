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
// table of 4 (or 2) bytes per device. A corrupted CRC entry merely
// marks its (healthy) device as an erasure, which the same machinery
// repairs.
package reedsolomon

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"repro/internal/ecc"
	"repro/internal/gf256"
	"repro/internal/parallel"
)

// castagnoli is the CRC-32C table used for device checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Code is a Reed-Solomon code with K data devices and M code devices
// per stripe of K*DeviceSize bytes.
type Code struct {
	K          int // data devices per stripe
	M          int // code (parity) devices per stripe
	DeviceSize int // bytes per device
	Workers    int
	// ChecksumBytes is the per-device checksum width: 4 (CRC-32C, the
	// default) or 2 (truncated CRC-16 — less overhead, but a corrupted
	// device escapes detection with probability 2^-16 instead of
	// 2^-32; see BenchmarkAblationCRCWidth).
	ChecksumBytes int

	gen *gf256.Matrix // (K+M) x K systematic generator
}

// DefaultDeviceSize is used when callers pass deviceSize <= 0.
const DefaultDeviceSize = 1024

// genCache memoizes generator matrices per (K, M): deriving one costs
// a K x K inversion, which would otherwise dominate small encodes.
// Cached matrices are immutable after construction.
var genCache sync.Map // genKey -> *gf256.Matrix

type genKey struct{ k, m int }

// New constructs a Reed-Solomon code. K and M must be positive with
// K+M <= 256 (the field order); deviceSize <= 0 selects
// DefaultDeviceSize.
func New(k, m, deviceSize, workers int) (*Code, error) {
	if deviceSize <= 0 {
		deviceSize = DefaultDeviceSize
	}
	var gen *gf256.Matrix
	if cached, ok := genCache.Load(genKey{k, m}); ok {
		gen = cached.(*gf256.Matrix)
	} else {
		var err error
		gen, err = gf256.RSGeneratorMatrix(k, m)
		if err != nil {
			return nil, fmt.Errorf("reedsolomon: %w", err)
		}
		genCache.Store(genKey{k, m}, gen)
	}
	return &Code{K: k, M: m, DeviceSize: deviceSize, Workers: workers, ChecksumBytes: 4, gen: gen}, nil
}

// NewCauchy is New with a Cauchy-derived generator matrix instead of
// the Vandermonde one (Jerasure offers both constructions; the codes
// are equally MDS but not stream-compatible with each other).
func NewCauchy(k, m, deviceSize, workers int) (*Code, error) {
	if deviceSize <= 0 {
		deviceSize = DefaultDeviceSize
	}
	gen, err := gf256.RSCauchyGeneratorMatrix(k, m)
	if err != nil {
		return nil, fmt.Errorf("reedsolomon: %w", err)
	}
	return &Code{K: k, M: m, DeviceSize: deviceSize, Workers: workers, ChecksumBytes: 4, gen: gen}, nil
}

// WithChecksumBytes returns a copy of the code using the given device
// checksum width (2 or 4 bytes).
func (c *Code) WithChecksumBytes(n int) (*Code, error) {
	if n != 2 && n != 4 {
		return nil, fmt.Errorf("reedsolomon: checksum width must be 2 or 4, got %d", n)
	}
	cc := *c
	cc.ChecksumBytes = n
	return &cc, nil
}

// csBytes is ChecksumBytes with the zero value treated as 4.
func (c *Code) csBytes() int {
	if c.ChecksumBytes == 0 {
		return 4
	}
	return c.ChecksumBytes
}

// checksum computes the device checksum at the configured width.
func (c *Code) checksum(dev []byte) uint32 {
	sum := crc32.Checksum(dev, castagnoli)
	if c.csBytes() == 2 {
		return sum & 0xFFFF
	}
	return sum
}

// putCS/getCS store checksums at the configured width.
func (c *Code) putCS(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	if c.csBytes() == 4 {
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
	}
}

func (c *Code) getCS(b []byte) uint32 {
	v := uint32(b[0]) | uint32(b[1])<<8
	if c.csBytes() == 4 {
		v |= uint32(b[2])<<16 | uint32(b[3])<<24
	}
	return v
}

func (c *Code) stripeDataBytes() int { return c.K * c.DeviceSize }

func (c *Code) stripeEncBytes() int {
	return (c.K+c.M)*c.DeviceSize + (c.K+c.M)*c.csBytes()
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
func (c *Code) EncodeTo(dst, data []byte, _ *ecc.Scratch) []byte {
	n := len(data)
	ns := c.stripes(n)
	out := ecc.GrowTo(dst, c.EncodedSize(n))
	// The serial case calls the range body directly: a closure passed
	// to parallel.For escapes (For hands it to goroutines on its other
	// path), which would cost an allocation per EncodeTo even for one
	// worker — the chunk-stream steady state this code serves.
	if parallel.Clamp(c.Workers, ns) == 1 {
		c.encodeRange(data, out, 0, ns)
	} else {
		parallel.For(ns, c.Workers, func(lo, hi int) {
			c.encodeRange(data, out, lo, hi)
		})
	}
	return out
}

// encodeRange encodes stripes [lo, hi); safe to run concurrently on
// disjoint ranges.
func (c *Code) encodeRange(data, out []byte, lo, hi int) {
	n := len(data)
	sdb := c.stripeDataBytes()
	seb := c.stripeEncBytes()
	for s := lo; s < hi; s++ {
		src := data[min(s*sdb, n):min((s+1)*sdb, n)]
		c.encodeStripe(src, out[s*seb:(s+1)*seb])
	}
}

// encodeStripe fills one encoded stripe from up to stripeDataBytes of
// source data (shorter input is zero-padded).
func (c *Code) encodeStripe(src, dst []byte) {
	ds := c.DeviceSize
	copy(dst, src)
	if len(src) < c.K*ds {
		// Zero-pad the final partial stripe explicitly: dst may be a
		// reused buffer with stale contents.
		clear(dst[len(src) : c.K*ds])
	}
	devices := dst[:(c.K+c.M)*ds]
	// Parity devices: parity_i = sum_j gen[K+i][j] * data_j, row-major
	// over the generator so each coefficient's cached gf256.Table row
	// stays hot for a full device-length pass. The first term
	// overwrites (the parity device starts zeroed, so assign == xor)
	// and saves one read-modify-write pass over pdev.
	for i := 0; i < c.M; i++ {
		row := c.gen.Row(c.K + i)
		pdev := devices[(c.K+i)*ds : (c.K+i+1)*ds]
		gf256.MulSliceAssign(row[0], devices[:ds], pdev)
		for j := 1; j < c.K; j++ {
			gf256.MulSlice(row[j], devices[j*ds:(j+1)*ds], pdev)
		}
	}
	// Checksum table.
	cs := c.csBytes()
	crcs := dst[(c.K+c.M)*ds:]
	for d := 0; d < c.K+c.M; d++ {
		c.putCS(crcs[d*cs:], c.checksum(devices[d*ds:(d+1)*ds]))
	}
}

// DecodeTo implements ecc.Code. With a warm s neither the clean
// path nor the repair path allocates beyond growing dst: a damaged
// stripe's working storage comes from s. With Workers > 1 each worker
// range brings its own scratch instead (a Scratch must not be shared
// between goroutines), allocated only if the range holds damage.
func (c *Code) DecodeTo(dst, encoded []byte, origLen int, s *ecc.Scratch) ([]byte, ecc.Report, error) {
	if err := c.checkLen(encoded, origLen); err != nil {
		return nil, ecc.Report{}, err
	}
	ns := c.stripes(origLen)
	out := ecc.GrowTo(dst, origLen)
	var detected, corrected, failed int64
	// Serial fast path: see EncodeTo. The atomics live inside the
	// parallel branch — counters captured by an escaping closure are
	// heap-allocated at their declaration, so they must not be declared
	// on the path the steady state takes.
	if parallel.Clamp(c.Workers, ns) == 1 {
		detected, corrected, failed = c.decodeRange(encoded, out, origLen, 0, ns, s)
	} else {
		var adet, acor, afail int64
		parallel.For(ns, c.Workers, func(lo, hi int) {
			ldet, lcor, lfail := c.decodeRange(encoded, out, origLen, lo, hi, nil)
			atomic.AddInt64(&adet, ldet)
			atomic.AddInt64(&acor, lcor)
			atomic.AddInt64(&afail, lfail)
		})
		detected, corrected, failed = adet, acor, afail
	}
	rep, err := c.report(detected, corrected, failed)
	return out, rep, err
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
	var detected, corrected, failed int64
	for s := 0; s < c.stripes(origLen); s++ {
		dst := out[min(s*sdb, origLen):min((s+1)*sdb, origLen)]
		d, co, err := c.decodeStripeRef(encoded[s*seb:(s+1)*seb], dst)
		detected += int64(d)
		corrected += int64(co)
		if err != nil {
			failed++
		}
	}
	rep, err := c.report(detected, corrected, failed)
	return out, rep, err
}

// checkLen rejects a stream too short to hold origLen encoded bytes.
func (c *Code) checkLen(encoded []byte, origLen int) error {
	if origLen < 0 || len(encoded) < c.EncodedSize(origLen) {
		return fmt.Errorf("%w: need %d bytes, have %d", ecc.ErrTruncated, c.EncodedSize(origLen), len(encoded))
	}
	return nil
}

// report turns stripe counters into DecodeTo's Report and error.
func (c *Code) report(detected, corrected, failed int64) (ecc.Report, error) {
	rep := ecc.Report{DetectedBlocks: int(detected), CorrectedBlocks: int(corrected)}
	if failed > 0 {
		return rep, fmt.Errorf("%w: %d stripe(s) had more than %d corrupt devices", ecc.ErrUncorrectable, failed, c.M)
	}
	return rep, nil
}

// decodeRange decodes stripes [lo, hi), returning local counters; safe
// to run concurrently on disjoint ranges as long as each call has its
// own s. A nil s stands for a range-local scratch, which stays empty
// (and on the stack) unless a stripe of the range is damaged.
func (c *Code) decodeRange(encoded, out []byte, origLen, lo, hi int, s *ecc.Scratch) (det, cor, fail int64) {
	var local ecc.Scratch
	if s == nil {
		s = &local
	}
	sdb := c.stripeDataBytes()
	seb := c.stripeEncBytes()
	for st := lo; st < hi; st++ {
		dst := out[min(st*sdb, origLen):min((st+1)*sdb, origLen)]
		d, co, err := c.decodeStripe(encoded[st*seb:(st+1)*seb], dst, s)
		det += int64(d)
		cor += int64(co)
		if err != nil {
			fail++
		}
	}
	return det, cor, fail
}

// decodeStripe verifies one stripe and writes the recovered data
// region into dst (len(dst) <= stripeDataBytes for the final stripe).
// It returns the number of corrupt devices detected and repaired; the
// stripe itself is never modified.
func (c *Code) decodeStripe(stripe, dst []byte, s *ecc.Scratch) (detected, corrected int, err error) {
	ds := c.DeviceSize
	total := c.K + c.M
	devices := stripe[:total*ds]
	crcs := stripe[total*ds:]
	cs := c.csBytes()
	var badBuf [gf256.Order]byte // device indices fit a byte: K+M <= 256
	bad := badBuf[:0]
	for d := 0; d < total; d++ {
		if c.checksum(devices[d*ds:(d+1)*ds]) != c.getCS(crcs[d*cs:]) {
			bad = append(bad, byte(d))
		}
	}
	// Healthy data devices pass through as they are; for a clean stripe
	// that is the whole decode. Past M corrupt devices it is the best
	// effort: callers may inspect the raw data region.
	copy(dst, devices)
	detected = len(bad)
	if detected > c.M {
		return detected, 0, ecc.ErrUncorrectable
	}
	// bad is ascending, so the corrupt data devices lead it. Corrupt
	// parity is repairable but needs no rebuilding to produce output:
	// with no corrupt data device the copy above already was the repair.
	e := 0
	for e < detected && int(bad[e]) < c.K {
		e++
	}
	if e > 0 && !c.solveStripe(devices, dst, bad[:e], bad[e:], s) {
		// Cannot happen for an MDS code; treat defensively as failure.
		return detected, 0, ecc.ErrUncorrectable
	}
	return detected, detected, nil
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
// The syndromes S_a take one pass over the healthy data, the e x e
// matrix is inverted on scratch storage, and data_bad = inv * S lands
// directly in dst. That is e*(K-e) + e*e slice multiplies and an
// O(e^3) inversion against the 2*K^3 byte operations of inverting K
// generator rows (decodeStripeRef): for 7 of 241+15 with 1 KiB devices
// about 1.7 M byte multiplies instead of 30 M.
func (c *Code) solveStripe(devices, dst, badData, badParity []byte, s *ecc.Scratch) bool {
	ds := c.DeviceSize
	e := len(badData)
	work := s.Slot(slotRepair, c.repairBytes())
	mat, inv, syn := work[:e*e], work[c.M*c.M:][:e*e], work[2*c.M*c.M:][:e*ds]

	// Solve from the first e healthy parity devices (at most M corrupt
	// devices leaves that many). Each syndrome starts as its parity.
	var rowBuf [gf256.Order]byte
	rows := rowBuf[:0]
	for p := 0; len(rows) < e; p++ {
		if len(badParity) > 0 && int(badParity[0]) == c.K+p {
			badParity = badParity[1:]
			continue
		}
		a := len(rows)
		rows = append(rows, byte(p))
		grow := c.gen.Row(c.K + p)
		for b, d := range badData {
			mat[a*e+b] = grow[d]
		}
		copy(syn[a*ds:(a+1)*ds], devices[(c.K+p)*ds:(c.K+p+1)*ds])
	}
	if gf256.InvertInPlace(mat, inv, e) != nil {
		return false
	}
	// Syndromes, data-major: each healthy data device is read once and
	// folded into all e syndromes, which stay cache-resident (e devices)
	// while the stripe streams past. In GF(2^8) subtraction is xor.
	skip := badData
	for j := 0; j < c.K; j++ {
		if len(skip) > 0 && int(skip[0]) == j {
			skip = skip[1:]
			continue
		}
		dev := devices[j*ds : (j+1)*ds]
		for a, p := range rows {
			gf256.MulSlice(c.gen.At(c.K+int(p), j), dev, syn[a*ds:(a+1)*ds])
		}
	}
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
	cs := c.csBytes()
	var bad []int
	for d := 0; d < total; d++ {
		if c.checksum(devices[d*ds:(d+1)*ds]) != c.getCS(crcs[d*cs:]) {
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
