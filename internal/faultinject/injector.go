package faultinject

import (
	"bytes"
	"fmt"
	"math/rand"
)

// Injector produces one corrupted copy of a buffer per trial. The
// fault-injection study uses single-bit flips (the dominant real-world
// fault, per Sridharan et al.); the resiliency evaluation also needs
// multi-bit and burst patterns.
type Injector interface {
	Name() string
	// Inject returns a corrupted copy of buf (never modifying buf).
	Inject(buf []byte, rng *rand.Rand) []byte
}

// SingleBit flips one uniformly random bit — the classic soft error.
type SingleBit struct{}

// Name implements Injector.
func (SingleBit) Name() string { return "single-bit" }

// Inject implements Injector.
func (SingleBit) Inject(buf []byte, rng *rand.Rand) []byte {
	mut := append([]byte(nil), buf...)
	if len(mut) > 0 {
		FlipBitInPlace(mut, rng.Intn(len(mut)*8))
	}
	return mut
}

// MultiBit flips K uniformly random bits (sparse multi-bit fault).
type MultiBit struct{ K int }

// Name implements Injector.
func (m MultiBit) Name() string { return fmt.Sprintf("multi-bit-%d", m.K) }

// Inject implements Injector.
func (m MultiBit) Inject(buf []byte, rng *rand.Rand) []byte {
	mut := append([]byte(nil), buf...)
	if len(mut) == 0 {
		return mut
	}
	for i := 0; i < m.K; i++ {
		FlipBitInPlace(mut, rng.Intn(len(mut)*8))
	}
	return mut
}

// Burst corrupts Bytes consecutive bytes starting at a random offset —
// the within-one-DRAM-device pattern Sridharan et al. report dominating
// Cielo's multi-bit faults.
type Burst struct{ Bytes int }

// Name implements Injector.
func (b Burst) Name() string { return fmt.Sprintf("burst-%dB", b.Bytes) }

// Inject implements Injector.
func (b Burst) Inject(buf []byte, rng *rand.Rand) []byte {
	mut := append([]byte(nil), buf...)
	n := b.Bytes
	if n > len(mut) {
		n = len(mut)
	}
	if n == 0 {
		return mut
	}
	off := rng.Intn(len(mut) - n + 1)
	for i := 0; i < n; i++ {
		// Guarantee each byte actually changes.
		mut[off+i] ^= byte(1 + rng.Intn(255))
	}
	return mut
}

// Patterns are the damage patterns every campaign draws from: a single
// bit, three bits anywhere, and bursts of 1, 4 and 64 bytes. None is
// shaped to stay inside any code's budget; the verdict says what came of
// it.
func Patterns() []Injector {
	return []Injector{SingleBit{}, MultiBit{K: 3}, Burst{Bytes: 1}, Burst{Bytes: 4}, Burst{Bytes: 64}}
}

// Verdicts tallies the ground-truth outcomes of decoding damaged bytes.
type Verdicts struct {
	Repaired int `json:"repaired"` // no error, exactly the original bytes
	Reported int `json:"reported"` // an error: the damage was detected
	Silent   int `json:"silent"`   // no error, wrong bytes
}

// Add records the verdict on one decode of damaged bytes that protect
// want: it returned got and err.
func (v *Verdicts) Add(got, want []byte, err error) {
	switch {
	case err != nil:
		v.Reported++
	case bytes.Equal(got, want):
		v.Repaired++
	default:
		v.Silent++
	}
}

// Merge adds o's counts to v.
func (v *Verdicts) Merge(o Verdicts) {
	v.Repaired += o.Repaired
	v.Reported += o.Reported
	v.Silent += o.Silent
}

// RepairFunc attempts to verify/repair a corrupted buffer, returning
// the recovered payload (or best effort) and an error when damage was
// detected but not correctable.
type RepairFunc func(mut []byte) (recovered []byte, err error)

// RunRepairCampaign drives an injector against a protected buffer: for
// each trial the buffer is corrupted, repaired, and judged against the
// expected payload.
func RunRepairCampaign(protected, expect []byte, inj Injector, repair RepairFunc, trials int, seed int64) Verdicts {
	rng := rand.New(rand.NewSource(seed))
	var v Verdicts
	for i := 0; i < trials; i++ {
		got, err := repair(inj.Inject(protected, rng))
		v.Add(got, expect, err)
	}
	return v
}
