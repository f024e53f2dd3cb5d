package arc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ecc"
)

func initTest(t *testing.T, threads int) *ARC {
	t.Helper()
	a, err := InitWithOptions(threads, Options{CacheDir: "-", TrainSampleBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return a
}

func TestAlgorithm1Integration(t *testing.T) {
	// The paper's Algorithm 1: four lines to integrate ARC.
	a, err := InitWithOptions(AnyThreads, Options{CacheDir: "-", TrainSampleBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(60)).Read(data)
	enc, err := a.Encode(data, AnyMem, AnyBW, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := a.Decode(enc.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Data, data) {
		t.Fatal("round trip mismatch")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryConstraintHonored(t *testing.T) {
	a := initTest(t, 2)
	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(61)).Read(data)
	for _, mem := range []float64{0.05, 0.125, 0.2, 0.5, 0.9} {
		enc, err := a.Encode(data, mem, AnyBW, AnyECC)
		if err != nil {
			t.Fatalf("mem %.2f: %v", mem, err)
		}
		if enc.Choice.Overhead > mem {
			t.Fatalf("mem %.2f: choice overhead %.3f over budget", mem, enc.Choice.Overhead)
		}
		// Realized size: asymptotic overhead + container + stripe
		// padding; on 512 KiB the slack stays small.
		if enc.ActualOverhead > mem+0.05 {
			t.Fatalf("mem %.2f: actual overhead %.3f", mem, enc.ActualOverhead)
		}
	}
}

func TestResiliencyFlagsSelectFamilies(t *testing.T) {
	a := initTest(t, 1)
	data := make([]byte, 300<<10)
	cases := []struct {
		res  Resiliency
		want ecc.Method
	}{
		{WithMethods(Parity), Parity},
		{WithMethods(Hamming), Hamming},
		{WithMethods(SECDED), SECDED},
		{WithMethods(ReedSolomon), ReedSolomon},
		{WithCaps(CorBurst), ReedSolomon},
		{WithErrorsPerMB(1), SECDED},
	}
	for _, c := range cases {
		enc, err := a.Encode(data, AnyMem, AnyBW, c.res)
		if err != nil {
			t.Fatalf("%+v: %v", c.res, err)
		}
		if enc.Choice.Config.Method != c.want {
			t.Fatalf("res %+v chose %s, want method %v", c.res, enc.Choice.Config, c.want)
		}
	}
}

func TestSingleBitErrorsAlwaysCorrected(t *testing.T) {
	// Section 6.3: with 1 err/MB, ARC corrects every injected single
	// bit error.
	a := initTest(t, 1)
	data := make([]byte, 200<<10)
	rand.New(rand.NewSource(62)).Read(data)
	enc, err := a.Encode(data, AnyMem, AnyBW, WithErrorsPerMB(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 100; trial++ {
		mut := append([]byte(nil), enc.Encoded...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		dec, err := a.Decode(mut)
		if err != nil {
			t.Fatalf("trial %d (bit %d): %v", trial, bit, err)
		}
		if !bytes.Equal(dec.Data, data) {
			t.Fatalf("trial %d: repair failed", trial)
		}
	}
}

func TestTable1EngineSurface(t *testing.T) {
	// Every Table-1 engine function, exercised directly.
	data := make([]byte, 4096)
	rand.New(rand.NewSource(64)).Read(data)

	p := ParityEncode(data, 8, 1)
	if _, _, err := ParityDecode(p, len(data), 8, 1); err != nil {
		t.Fatalf("parity: %v", err)
	}
	p[10] ^= 1
	if _, _, err := ParityDecode(p, len(data), 8, 1); !errors.Is(err, ecc.ErrUncorrectable) {
		t.Fatal("parity must detect")
	}

	h := HammingEncode(data, 64, 1)
	h[100] ^= 0x04
	got, rep, err := HammingDecode(h, len(data), 64, 1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("hamming: %v", err)
	}
	if rep.CorrectedBlocks != 1 {
		t.Fatalf("hamming corrected %d", rep.CorrectedBlocks)
	}

	s := SecdedEncode(data, 8, 1)
	s[7] ^= 0x80
	got, _, err = SecdedDecode(s, len(data), 8, 1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("secded: %v", err)
	}

	r, err := ReedSolomonEncode(data, 8, 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		r[i] ^= 0xFF // burst across device 0
	}
	got, _, err = ReedSolomonDecode(r, len(data), 8, 2, 64, 1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reed-solomon: %v", err)
	}
	if _, err := ReedSolomonEncode(data, 200, 100, 64, 1); err == nil {
		t.Fatal("invalid RS shape must error")
	}
}

func TestOptimizerSurface(t *testing.T) {
	a := initTest(t, 2)
	m, err := a.MemoryOptimizer(0.2, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	if m.Overhead > 0.2 {
		t.Fatal("memory optimizer over budget")
	}
	tp, err := a.ThroughputOptimizer(0.001, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	if tp.PredictedEncMBs < 0.001 {
		t.Fatal("throughput optimizer under bound")
	}
	j, err := a.JointOptimizer(0.5, 0.001, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	// The suggestion is advisory: EncodeContainer accepts it (or any other).
	data := make([]byte, 10<<10)
	enc, err := EncodeContainer(data, j)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Encoded, 1) // standalone decode
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Data, data) {
		t.Fatal("EncodeContainer/Decode mismatch")
	}
}

func TestBurstRecoveryEndToEnd(t *testing.T) {
	a := initTest(t, 1)
	data := make([]byte, 600<<10)
	rand.New(rand.NewSource(65)).Read(data)
	enc, err := a.Encode(data, 0.2, AnyBW, WithCaps(CorBurst))
	if err != nil {
		t.Fatal(err)
	}
	// 4 KB burst inside the payload.
	mut := append([]byte(nil), enc.Encoded...)
	for i := 0; i < 4096; i++ {
		mut[200+i] = 0xFF
	}
	dec, err := a.Decode(mut)
	if err != nil {
		t.Fatalf("burst not recovered: %v", err)
	}
	if !bytes.Equal(dec.Data, data) {
		t.Fatal("burst recovery mismatch")
	}
}
