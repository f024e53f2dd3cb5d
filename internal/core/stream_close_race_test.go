package core

// Regression test for ChunkReader.Close racing a mid-stream decode
// error. No static check covers this scenario: this test is its
// guard. The reader's Close cancels the pipeline from the consumer
// side at the same moment a decode worker is failing a damaged chunk
// and the producer is still submitting; a shutdown bug here strands
// the producer on a send or a worker on a result channel. The test
// runs the window at several read depths (before the pipeline starts,
// with the error chunk still in flight, and after the error has
// surfaced) and checks the goroutine count settles back every time.
// CI and verify.sh run it under -race with -count=5 to vary
// scheduling.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ecc"
)

func TestChunkReaderCloseRacesMidStreamError(t *testing.T) {
	base := runtime.NumGoroutine()
	data := make([]byte, 16<<10)
	rand.New(rand.NewSource(107)).Read(data)
	// Parity detects but cannot correct: a payload flip is terminal.
	choice := Choice{Config: Config{Method: ecc.MethodParity, Param: 8}, Threads: 1}
	enc := encodeStream(t, choice, StreamOptions{ChunkSize: 2 << 10, Pipeline: 1}, data)
	chunkLen := len(enc) / 8
	enc[3*chunkLen+ContainerOverheadBytes+50] ^= 0x01

	// Read depths in bytes: 0 closes an unstarted pipeline, 1 closes
	// with chunk 3 still being decoded, 3 chunks' worth closes just
	// under the error, -1 drains until the error surfaces first.
	for _, depth := range []int{0, 1, 700, 3 * (2 << 10), -1} {
		cr := NewChunkReaderWith(bytes.NewReader(enc), 1, StreamOptions{Pipeline: 8})
		if depth < 0 {
			_, err := io.ReadAll(cr)
			if !errors.Is(err, ecc.ErrUncorrectable) {
				t.Fatalf("drain: want ErrUncorrectable, got %v", err)
			}
		} else if depth > 0 {
			if _, err := io.ReadFull(cr, make([]byte, depth)); err != nil {
				t.Fatalf("depth %d: %v", depth, err)
			}
		}
		if err := cr.Close(); err != nil {
			t.Fatalf("depth %d: Close = %v", depth, err)
		}
		if _, err := cr.Read(make([]byte, 16)); err == nil {
			t.Fatalf("depth %d: Read after Close succeeded", depth)
		}
		// Close must have cancelled and joined the producer and every
		// decode worker, even with the poisoned chunk in flight.
		checkNoLeaks(t, base)
	}
}
