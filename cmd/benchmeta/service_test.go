package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/service"
)

// healthyWorkload is a passing arcload result: all injected damage
// accounted for, floors comfortably met.
func healthyWorkload() service.WorkloadResult {
	return service.WorkloadResult{
		Clients: 4, Requests: 200, Encodes: 100, Decodes: 80, Verifies: 10, Repairs: 10,
		Corrupted: map[string]faultinject.Verdicts{"single-bit": {Repaired: 30}, "burst-64B": {Reported: 12}},
		ElapsedMs: 1000, RequestsPerS: 200,
		Latency: metrics.HistogramSnapshot{Count: 200, P50Ms: 2, P99Ms: 20, MaxMs: 30},
	}
}

func runServiceOn(t *testing.T, res service.WorkloadResult) (serviceArtifact, string, error) {
	t.Helper()
	in, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	gateErr := runService(bytes.NewReader(in), &out, &errw)
	var art serviceArtifact
	if out.Len() > 0 {
		if err := json.Unmarshal(out.Bytes(), &art); err != nil {
			t.Fatalf("artifact is not valid JSON: %v", err)
		}
	}
	return art, errw.String(), gateErr
}

func TestServiceArtifactAndGate(t *testing.T) {
	art, errw, err := runServiceOn(t, healthyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if art.Host.Cores < 1 || art.Workload.Requests != 200 {
		t.Fatalf("artifact: %+v", art)
	}
	if art.Targets["RequestsPerS_min"] != serviceReqPerSMin {
		t.Fatalf("targets: %+v", art.Targets)
	}
	if !strings.Contains(errw, "service gate OK") {
		t.Fatalf("stderr = %q", errw)
	}
}

func TestServiceGateFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*service.WorkloadResult)
		want   string
	}{
		{"silent mismatch", func(r *service.WorkloadResult) { r.SilentMismatches = 1 }, "SILENT MISMATCH"},
		{"request errors", func(r *service.WorkloadResult) { r.Errors = 3 }, "request errors"},
		{"no injection", func(r *service.WorkloadResult) { r.Corrupted = nil }, "no container was damaged"},
		{"throughput floor", func(r *service.WorkloadResult) { r.RequestsPerS = 1 }, "req/s"},
		{"latency ceiling", func(r *service.WorkloadResult) { r.Latency.P99Ms = 99999 }, "p99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := healthyWorkload()
			tc.mutate(&res)
			_, _, err := runServiceOn(t, res)
			if err == nil || !strings.Contains(err.Error(), "service gate FAILED") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want gate failure mentioning %q", err, tc.want)
			}
		})
	}
}

func TestServiceGateRejectsGarbageInput(t *testing.T) {
	var out, errw bytes.Buffer
	if err := runService(strings.NewReader("not json"), &out, &errw); err == nil {
		t.Fatal("garbage input accepted")
	}
}
