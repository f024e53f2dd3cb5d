package faultinject

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestSingleBitInjector(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 100)
	mut := SingleBit{}.Inject(buf, rng)
	if bytes.Equal(mut, buf) {
		t.Fatal("must flip something")
	}
	diff := 0
	for i := range buf {
		if mut[i] != buf[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want 1", diff)
	}
	if (SingleBit{}).Name() != "single-bit" {
		t.Fatal("name")
	}
}

func TestMultiBitInjector(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, 1000)
	mut := MultiBit{K: 5}.Inject(buf, rng)
	flips := 0
	for i := range buf {
		for b := 0; b < 8; b++ {
			if (mut[i]^buf[i])>>b&1 == 1 {
				flips++
			}
		}
	}
	// Collisions can cancel, so flips <= 5 and odd/even parity matches.
	if flips == 0 || flips > 5 {
		t.Fatalf("%d net flips for K=5", flips)
	}
	if (MultiBit{K: 3}).Name() != "multi-bit-3" {
		t.Fatal("name")
	}
}

func TestBurstInjector(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 256)
	mut := Burst{Bytes: 16}.Inject(buf, rng)
	// Changed region must be exactly 16 consecutive bytes.
	first, last := -1, -1
	for i := range buf {
		if mut[i] != buf[i] {
			if first == -1 {
				first = i
			}
			last = i
		}
	}
	if first == -1 || last-first != 15 {
		t.Fatalf("burst span [%d,%d]", first, last)
	}
	for i := first; i <= last; i++ {
		if mut[i] == buf[i] {
			t.Fatal("burst must change every byte in its span")
		}
	}
	// Burst longer than the buffer clamps.
	small := Burst{Bytes: 99}.Inject([]byte{1, 2}, rng)
	if len(small) != 2 {
		t.Fatal("clamp failed")
	}
}

func TestInjectorsNeverMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 64)
	snapshot := append([]byte(nil), buf...)
	for _, inj := range Patterns() {
		inj.Inject(buf, rng)
		if !bytes.Equal(buf, snapshot) {
			t.Fatalf("%s mutated its input", inj.Name())
		}
	}
}

func TestRunRepairCampaign(t *testing.T) {
	expect := []byte("payload")
	protected := append([]byte("protected:"), expect...)
	// A fake repair that succeeds when the prefix is intact, errors
	// when the first byte changed, and silently corrupts otherwise.
	repair := func(mut []byte) ([]byte, error) {
		if mut[0] != 'p' {
			return nil, errors.New("detected")
		}
		return mut[10:], nil
	}
	v := RunRepairCampaign(protected, expect, SingleBit{}, repair, 200, 6)
	if v.Repaired+v.Reported+v.Silent != 200 {
		t.Fatal("trials must sum")
	}
	if v.Repaired == 0 || v.Reported == 0 || v.Silent == 0 {
		t.Fatalf("expected a mix, got %+v", v)
	}
}
