package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestArcloadAgainstLiveServer runs the harness end to end against an
// in-process arcd with fault injection on, and checks the JSON result
// carries a clean integrity verdict.
func TestArcloadAgainstLiveServer(t *testing.T) {
	s := service.New(service.Config{Workers: 2})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }() // workload completes before this

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out, errw bytes.Buffer
	err = run(ctx, []string{
		"-addr", addr.String(),
		"-clients", "3",
		"-requests", "25",
		"-max-size", "8192",
		"-corrupt", "0.5",
		"-seed", "11",
	}, &out, &errw)
	if err != nil {
		t.Fatalf("arcload: %v\n%s", err, errw.String())
	}

	var res service.WorkloadResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not a workload result: %v", err)
	}
	if res.Requests != 75 || res.Errors != 0 || res.SilentMismatches != 0 {
		t.Fatalf("workload result: %+v", res)
	}
	if v := res.CorruptedTotal(); v.Repaired == 0 || v.Reported == 0 || v.Silent != 0 {
		t.Fatalf("fault injection verdicts: %+v", res.Corrupted)
	}
	if !strings.Contains(errw.String(), "req/s") || !strings.Contains(errw.String(), "silent mismatches 0") {
		t.Fatalf("summary missing from stderr:\n%s", errw.String())
	}
}

func TestArcloadBadFlagsAndDeadServer(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, &errw); err == nil {
		t.Fatal("bad flag accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Nothing listens on a fresh ephemeral-range port 1 — the dial must
	// fail loudly, not hang or report a healthy empty run.
	if err := run(ctx, []string{"-addr", "127.0.0.1:1", "-clients", "1", "-requests", "1"}, &out, &errw); err == nil {
		t.Fatal("dead server produced a successful run")
	}
}
