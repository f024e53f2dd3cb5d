package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	arc "repro"
	"repro/internal/core"
	"repro/internal/ecc"
)

var (
	secded64 = core.Config{Method: ecc.MethodSECDED, Param: 64}
	rsM15    = core.Config{Method: ecc.MethodReedSolomon, Param: 15}
)

// encodeStream protects data as a chunked stream under cfg.
func encodeStream(t *testing.T, a *arc.ARC, cfg core.Config, data []byte, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := a.NewWriterChoice(&buf, arc.Choice{Config: cfg, Threads: 1}, arc.StreamOptions{ChunkSize: chunk, Indexed: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultPatternsProperty holds the constructors to their claim on
// the code as it stands: every within-budget pattern is repaired and
// reported exactly, every over-budget pattern is refused.
func TestFaultPatternsProperty(t *testing.T) {
	a, err := arc.InitWithOptions(1, arc.Options{CacheDir: "-", TrainSampleBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		cfg := secded64
		if trial%2 == 1 {
			cfg = rsM15
		}
		data := make([]byte, 1+rng.Intn(300<<10))
		rng.Read(data)
		chunkSize := 16<<10 + rng.Intn(128<<10)

		decode := func(stream []byte) ([]byte, arc.StreamReport, error) {
			r := arc.NewReader(bytes.NewReader(stream), 1)
			got, err := io.ReadAll(r)
			return got, r.Report(), err
		}
		inject := func(pattern func(chunks []chunk) (repairs, error)) ([]byte, repairs) {
			stream := encodeStream(t, a, cfg, data, chunkSize)
			chunks, err := chunksOf(stream)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pattern(chunks)
			if err != nil {
				t.Fatal(err)
			}
			return stream, want
		}

		within := []func(chunks []chunk) (repairs, error){
			func(chunks []chunk) (repairs, error) { // the service's DECODE faults, on every chunk
				var want repairs
				for _, c := range chunks {
					want.add(withinBudget(c, rng))
					c.damageHeaderReplica(rng)
				}
				return want, nil
			},
		}
		if cfg == secded64 {
			within = append(within, func(chunks []chunk) (repairs, error) {
				return sparseFlips(chunks, 1+rng.Intn(len(data)/8+1), rng)
			})
		} else {
			within = append(within, func(chunks []chunk) (repairs, error) {
				return stripeBursts(chunks, 1+rng.Intn(cfg.Param), rng)
			})
		}
		for i, pattern := range within {
			stream, want := inject(pattern)
			got, rep, err := decode(stream)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("trial %d %s pattern %d (%+v): not repaired: %v", trial, cfg, i, want, err)
			}
			if !want.matches(rep.DetectedBlocks, rep.CorrectedBits, rep.CorrectedBlocks) {
				t.Fatalf("trial %d %s pattern %d: report %+v, injected %+v", trial, cfg, i, rep, want)
			}
		}

		stream, _ := inject(func(chunks []chunk) (repairs, error) {
			overBudget(chunks[rng.Intn(len(chunks))], rng)
			return repairs{}, nil
		})
		if _, _, err := decode(stream); !errors.Is(err, ecc.ErrUncorrectable) {
			t.Fatalf("trial %d %s: over-budget damage not reported: %v", trial, cfg, err)
		}
	}
}
