package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsMonotone(t *testing.T) {
	prev := -1
	for _, ns := range []int64{1, 2, 3, 5, 8, 11, 17, 100, 1000, 1 << 20, 1 << 40} {
		i := bucketIndex(ns)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d, below previous %d", ns, i, prev)
		}
		if up := bucketUpper(i); up < ns {
			t.Fatalf("bucketUpper(%d) = %d < observed %d", i, up, ns)
		}
		prev = i
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// 100 samples: 1ms ... 100ms. Half-octave buckets bound any
	// quantile to within ~50% above the true value.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 50*time.Millisecond || p50 > 75*time.Millisecond {
		t.Fatalf("p50 = %v, want within [50ms, 75ms]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 99*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want within [99ms, 100ms] (clamped to max)", p99)
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	if m := h.Mean(); m < 50*time.Millisecond || m > 51*time.Millisecond {
		t.Fatalf("mean = %v", m)
	}
	// Quantiles are clamped to the observed maximum.
	if q := h.Quantile(1); q != 100*time.Millisecond {
		t.Fatalf("p100 = %v", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Quantile(0.5) == 0 {
		t.Fatal("p50 = 0 after concurrent observes")
	}
}

func TestLiveSnapshot(t *testing.T) {
	l := NewLive("encode", "decode", "stats")
	l.ConnOpened()
	l.ConnOpened()
	l.ConnClosed()
	l.FrameError()
	l.RequestDone(0, false, 1000, 1200, 2*time.Millisecond)
	l.RequestDone(1, true, 1200, 40, 5*time.Millisecond)
	l.RequestDone(99, false, 1, 1, time.Millisecond) // out of range: bytes still counted
	l.RepairObserved(3, 2, 1, 0, false)
	l.RepairObserved(1, 0, 0, 1, true)

	s := l.Snapshot()
	if s.ConnsTotal != 2 || s.ConnsActive != 1 {
		t.Fatalf("conns = %d/%d", s.ConnsTotal, s.ConnsActive)
	}
	if s.Requests != 2 || s.Errors != 1 || s.FrameErrors != 1 {
		t.Fatalf("requests/errors/frames = %d/%d/%d", s.Requests, s.Errors, s.FrameErrors)
	}
	if s.BytesIn != 2201 || s.BytesOut != 1241 {
		t.Fatalf("bytes = %d/%d", s.BytesIn, s.BytesOut)
	}
	if s.RepairedRequests != 1 || s.Uncorrectable != 1 || s.CorrectedBits != 2 || s.DetectedBlocks != 4 || s.DigestMismatches != 1 {
		t.Fatalf("repair counters: %+v", s)
	}
	if len(s.Ops) != 3 || s.Ops[0].Name != "encode" || s.Ops[0].Requests != 1 || s.Ops[1].Errors != 1 {
		t.Fatalf("ops: %+v", s.Ops)
	}
	if s.Latency.Count != 3 || s.Latency.P99Ms <= 0 {
		t.Fatalf("latency: %+v", s.Latency)
	}

	// The snapshot is the STATS wire payload: it must marshal cleanly.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back LiveSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.BytesIn != s.BytesIn || back.Ops[2].Name != "stats" {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}
