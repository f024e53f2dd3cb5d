package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ecc"
)

// testEngine builds an engine with a tiny training sample and no
// persistence so tests stay fast.
func testEngine(t *testing.T, maxThreads int) *Engine {
	t.Helper()
	e, err := NewEngine(EngineOptions{MaxThreads: maxThreads, CacheDir: "-", SampleBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

func TestEngineEncodeDecodeClean(t *testing.T) {
	e := testEngine(t, 2)
	rng := rand.New(rand.NewSource(50))
	data := make([]byte, 100_000)
	rng.Read(data)
	res, err := e.Encode(data, 0.2, AnyBW, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice.Overhead > 0.2 {
		t.Fatalf("optimizer exceeded budget: %f", res.Choice.Overhead)
	}
	dec, err := e.Decode(res.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Data, data) {
		t.Fatal("round trip mismatch")
	}
	if dec.Report.DetectedBlocks != 0 {
		t.Fatal("clean decode flagged errors")
	}
	if dec.Config != res.Choice.Config {
		t.Fatal("decoded config mismatch")
	}
}

func TestEngineCorrectsSingleFlip(t *testing.T) {
	e := testEngine(t, 1)
	data := make([]byte, 50_000)
	rand.New(rand.NewSource(51)).Read(data)
	res, err := e.Encode(data, AnyMem, AnyBW, Resiliency{ErrorsPerMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: resiliency 1 err/MB => SEC-DED over 8 bytes.
	if res.Choice.Config.Method != ecc.MethodSECDED {
		t.Fatalf("1 err/MB chose %s, want SEC-DED (paper Section 6.3)", res.Choice.Config)
	}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 50; trial++ {
		mut := append([]byte(nil), res.Encoded...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		dec, err := e.Decode(mut)
		if err != nil {
			t.Fatalf("trial %d (bit %d): %v", trial, bit, err)
		}
		if !bytes.Equal(dec.Data, data) {
			t.Fatalf("trial %d: data not repaired", trial)
		}
	}
}

func TestEngineDetectsWithParity(t *testing.T) {
	e := testEngine(t, 1)
	data := make([]byte, 10_000)
	res, err := e.Encode(data, AnyMem, AnyBW, Resiliency{Methods: []ecc.Method{ecc.MethodParity}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice.Config.Method != ecc.MethodParity {
		t.Fatalf("chose %s", res.Choice.Config)
	}
	mut := append([]byte(nil), res.Encoded...)
	mut[ContainerOverheadBytes+100] ^= 0x01
	_, err = e.Decode(mut)
	if !errors.Is(err, ecc.ErrUncorrectable) {
		t.Fatalf("parity must detect and report, got %v", err)
	}
}

func TestEngineBurstWithRS(t *testing.T) {
	e := testEngine(t, 1)
	rng := rand.New(rand.NewSource(53))
	data := make([]byte, 600_000)
	rng.Read(data)
	res, err := e.Encode(data, 0.2, AnyBW, Resiliency{Caps: ecc.CorrectBurst})
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice.Config.Method != ecc.MethodReedSolomon {
		t.Fatalf("burst constraint chose %s", res.Choice.Config)
	}
	// Burst: wipe 3 KB inside the payload (about three devices).
	mut := append([]byte(nil), res.Encoded...)
	off := ContainerOverheadBytes + 8000
	for i := 0; i < 3000; i++ {
		mut[off+i] ^= 0xA5
	}
	dec, err := e.Decode(mut)
	if err != nil {
		t.Fatalf("burst not corrected: %v", err)
	}
	if !bytes.Equal(dec.Data, data) {
		t.Fatal("burst repair mismatch")
	}
	if dec.Report.CorrectedBlocks == 0 {
		t.Fatal("report shows no corrected devices")
	}
}

func TestEngineHeaderFlipStillDecodes(t *testing.T) {
	e := testEngine(t, 1)
	data := make([]byte, 10_000)
	res, err := e.Encode(data, 0.15, AnyBW, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), res.Encoded...)
	mut[5] ^= 0xFF // inside replica 0 of the header
	dec, err := e.Decode(mut)
	if err != nil {
		t.Fatalf("replicated header must survive: %v", err)
	}
	if !bytes.Equal(dec.Data, data) {
		t.Fatal("data mismatch after header damage")
	}
}

func TestEngineClosedErrors(t *testing.T) {
	e := testEngine(t, 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Encode([]byte{1}, AnyMem, AnyBW, AnyECC); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := e.Save(); !errors.Is(err, ErrClosed) {
		t.Fatal("Save after Close must fail")
	}
	if err := e.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

func TestEngineCachePersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arc-cache")
	opts := EngineOptions{MaxThreads: 2, CacheDir: dir, SampleBytes: 32 << 10}
	requests := func(e *Engine) {
		t.Helper()
		if _, err := e.Encode([]byte("x"), AnyMem, AnyBW, Resiliency{ErrorsPerMB: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Optimizer().Joint(0.1, 1e9, Resiliency{Methods: []ecc.Method{ecc.MethodReedSolomon}}); err != nil {
			t.Fatal(err)
		}
	}
	e1, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if e1.TrainedPoints() != 0 {
		t.Fatalf("init measured %d points, want none before a request", e1.TrainedPoints())
	}
	requests(e1)
	first := e1.TrainedPoints()
	if first == 0 {
		t.Fatal("first request must train")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "train-cache.json")); err != nil {
		t.Fatalf("cache file missing: %v", err)
	}
	// Second engine, same requests: the cache answers them all.
	e2, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	requests(e2)
	if e2.TrainedPoints() != 0 {
		t.Fatalf("second engine trained %d points, want 0 (cache hit)", e2.TrainedPoints())
	}
	// Raising the thread cap trains only the missing thread counts:
	// the unreachable bound needs every tier of the RS configurations
	// under the budget, and tiers 1 and 2 are cached.
	e3, err := NewEngine(EngineOptions{MaxThreads: 4, CacheDir: dir, SampleBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	requests(e3)
	if e3.TrainedPoints() == 0 || e3.TrainedPoints() >= first {
		t.Fatalf("incremental training measured %d points (first %d)", e3.TrainedPoints(), first)
	}
	// A differently sized sample shares nothing with that cache.
	e4, err := NewEngine(EngineOptions{MaxThreads: 2, CacheDir: dir, SampleBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e4.Close()
	requests(e4)
	if e4.TrainedPoints() != first {
		t.Fatalf("other sample size measured %d points, want %d (cache discarded)", e4.TrainedPoints(), first)
	}
}

func TestEngineEmptyData(t *testing.T) {
	e := testEngine(t, 1)
	res, err := e.Encode(nil, AnyMem, AnyBW, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := e.Decode(res.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Data) != 0 {
		t.Fatal("empty data must round trip")
	}
}

func TestDecodeContainerStandalone(t *testing.T) {
	e := testEngine(t, 1)
	data := []byte("standalone decode needs no engine")
	res, err := e.Encode(data, AnyMem, AnyBW, AnyECC)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeContainer(nil, res.Encoded, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Data, data) {
		t.Fatal("standalone decode mismatch")
	}
}

func TestTrainThreadCounts(t *testing.T) {
	got := trainThreadCounts(40)
	want := []int{1, 2, 4, 8, 16, 32, 40}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if g := trainThreadCounts(1); len(g) != 1 || g[0] != 1 {
		t.Fatalf("maxThreads 1: %v", g)
	}
	if g := trainThreadCounts(0); len(g) != 1 || g[0] != 1 {
		t.Fatalf("maxThreads 0 must clamp: %v", g)
	}
}
