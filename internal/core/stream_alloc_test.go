package core

// Allocation-regression tests for the chunk stream hot path: after
// warm-up, steady-state chunk encode and decode must stay within a
// small amortized allocation budget (docs/ALLOCATIONS.md). Measured
// with testing.AllocsPerRun, which counts mallocs process-wide — worker
// and emitter goroutine allocations are included, which is the point.

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/raceflag"
)

// steadyStateAllocBudget is the amortized allocs/op ceiling for one
// full steady-state chunk through encode or decode. The design target
// is ~0; the budget of 2 absorbs scheduler-dependent sync.Pool misses
// (a GC can empty pools mid-measurement).
const steadyStateAllocBudget = 2.0

// allocTestChoice exercises the deepest codec path (Reed-Solomon
// striping + CRC tables), where per-chunk reallocation used to
// dominate.
var allocTestChoice = Choice{Config: Config{Method: ecc.MethodReedSolomon, Param: 15}, Threads: 1}

const allocTestChunkSize = 64 << 10

func skipIfAllocCountingUnreliable(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
}

func measureEncodeAllocs(t *testing.T, pipeline int) float64 {
	t.Helper()
	cw, err := streamTestEngine(4).NewChunkWriterChoice(io.Discard, allocTestChoice,
		StreamOptions{ChunkSize: allocTestChunkSize, Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	chunk := make([]byte, allocTestChunkSize)
	rand.New(rand.NewSource(1)).Read(chunk)
	// Warm-up: fill the buffer pools and every worker's scratch.
	for i := 0; i < 4*pipeline+8; i++ {
		if _, err := cw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(100, func() {
		if _, err := cw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStreamEncodeSteadyStateAllocs(t *testing.T) {
	skipIfAllocCountingUnreliable(t)
	for _, pipeline := range []int{1, 4} {
		if avg := measureEncodeAllocs(t, pipeline); avg > steadyStateAllocBudget {
			t.Errorf("pipeline=%d: steady-state chunk encode = %.2f allocs/op, budget %.0f",
				pipeline, avg, steadyStateAllocBudget)
		}
	}
}

// measureDecodeAllocs drives the decode side to a steady state over a
// stream with a chunk for every read it makes, read-ahead included: one
// container replayed in a loop would fail its position-bound digest.
func measureDecodeAllocs(t *testing.T, pipeline int) float64 {
	t.Helper()
	warm, runs := 4*pipeline+8, 101 // AllocsPerRun(100) calls once more to warm up
	plain := make([]byte, (warm+runs+pipeline)*allocTestChunkSize)
	rand.New(rand.NewSource(2)).Read(plain)
	stream := encodeStream(t, allocTestChoice,
		StreamOptions{ChunkSize: allocTestChunkSize, Pipeline: 1}, plain)
	cr := NewChunkReaderWith(bytes.NewReader(stream), 1, StreamOptions{Pipeline: pipeline})
	defer cr.Close()
	out := make([]byte, allocTestChunkSize)
	for i := 0; i < warm; i++ {
		if _, err := io.ReadFull(cr, out); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(runs-1, func() {
		if _, err := io.ReadFull(cr, out); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStreamDecodeSteadyStateAllocs(t *testing.T) {
	skipIfAllocCountingUnreliable(t)
	for _, pipeline := range []int{1, 4} {
		if avg := measureDecodeAllocs(t, pipeline); avg > steadyStateAllocBudget {
			t.Errorf("pipeline=%d: steady-state chunk decode = %.2f allocs/op, budget %.0f",
				pipeline, avg, steadyStateAllocBudget)
		}
	}
}
