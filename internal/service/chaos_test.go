package service

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/metrics"
)

// TestChaosFaultInjectionUnderLoad is the headline guarantee of the
// service under fire: with many clients hammering a live arcd and a
// large fraction of containers damaged mid-flight — by any of the
// faultinject patterns, anywhere in the container — every response is
// repaired or reported, and nothing, not one request, is silently
// wrong. A single flipped bit is within every correcting code's budget
// wherever it lands (the header replicas vote), so each one must come
// back repaired. Then the server drains without leaking a goroutine.
func TestChaosFaultInjectionUnderLoad(t *testing.T) {
	for _, cfg := range []core.Config{{Method: ecc.MethodSECDED, Param: 64}, {Method: ecc.MethodReedSolomon, Param: 15}} {
		t.Run(cfg.String(), func(t *testing.T) { chaosUnderLoad(t, cfg) })
	}
}

func chaosUnderLoad(t *testing.T, cfg core.Config) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 4, Window: 8})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	clients, requests := 6, 60
	if testing.Short() {
		clients, requests = 3, 20
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	res, err := RunWorkload(ctx, WorkloadOptions{
		Addr:        addr.String(),
		Clients:     clients,
		Requests:    requests,
		EncodeRatio: 0.4,
		MinSize:     64,
		MaxSize:     32 << 10,
		CorruptRate: 0.6,
		Method:      cfg.Method,
		Param:       cfg.Param,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Requests != clients*requests {
		t.Errorf("completed %d requests, want %d", res.Requests, clients*requests)
	}
	if res.Errors != 0 {
		t.Errorf("workload counted %d errors, want 0", res.Errors)
	}

	// The integrity contract: repaired or reported, never silently
	// wrong — and the campaign must have produced both verdicts.
	total := res.CorruptedTotal()
	if total.Repaired == 0 || total.Reported == 0 {
		t.Fatalf("chaos campaign under-injected: %+v (seed/rate drift?)", res.Corrupted)
	}
	if total.Silent != 0 || res.SilentMismatches != 0 {
		t.Errorf("SILENT MISMATCHES: %d damaged and %d in all returned wrong bytes as OK", total.Silent, res.SilentMismatches)
	}
	if single := res.Corrupted["single-bit"]; single.Repaired == 0 || single.Reported != 0 || single.Silent != 0 {
		t.Errorf("single-bit flips: %+v, want every one repaired", single)
	}

	// The embedded server snapshot corroborates the client-side tally.
	if len(res.ServerStats) == 0 {
		t.Fatal("workload result missing server stats")
	}
	var snap metrics.LiveSnapshot
	if err := json.Unmarshal(res.ServerStats, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Uncorrectable == 0 || snap.Uncorrectable > int64(total.Reported) {
		t.Errorf("server counted %d uncorrectable decodes, workload saw %d reported", snap.Uncorrectable, total.Reported)
	}
	if snap.DigestMismatches > snap.Uncorrectable {
		t.Errorf("server counted %d digest mismatches among %d uncorrectable", snap.DigestMismatches, snap.Uncorrectable)
	}
	if snap.RepairedRequests == 0 {
		t.Error("server counted no repaired request")
	}
	if snap.Requests < int64(res.Requests) {
		t.Errorf("server saw %d requests, workload sent %d", snap.Requests, res.Requests)
	}
	if res.Latency.Count == 0 || res.Latency.P99Ms <= 0 {
		t.Errorf("latency histogram empty: %+v", res.Latency)
	}

	// Drain and leak-check: chaos must not leave wreckage behind.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown after chaos: %v", err)
	}
	checkNoLeaks(t, base)
}

// TestWorkloadCleanRun: no corruption, every op mixed in, zero errors.
func TestWorkloadCleanRun(t *testing.T) {
	s := New(Config{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }() // drained below via workload completion

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := RunWorkload(ctx, WorkloadOptions{
		Addr:     addr.String(),
		Clients:  2,
		Requests: 20,
		MaxSize:  4 << 10,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.SilentMismatches != 0 {
		t.Fatalf("clean run: %d errors, %d mismatches", res.Errors, res.SilentMismatches)
	}
	if res.Requests != 40 || res.Encodes == 0 || res.Decodes == 0 {
		t.Fatalf("mix did not exercise the ops: %+v", res)
	}
	if len(res.Corrupted) != 0 {
		t.Fatalf("clean run injected corruption: %+v", res)
	}
	if res.RequestsPerS <= 0 || res.ElapsedMs <= 0 {
		t.Fatalf("throughput accounting: %+v", res)
	}
}
