package experiments

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// ExtMatrixResult is an extension of the paper's Section 6.3: a full
// matrix of ECC configuration x fault pattern over what ARC stores,
// counting each trial's ground-truth verdict. The paper spot-checks
// three points of this matrix (SEC-DED vs single bits, RS vs bursts,
// parity detect-only); the matrix fills in the rest.
type ExtMatrixResult struct {
	Rows []ExtMatrixRow
}

// ExtMatrixRow is one (config, fault pattern) cell.
type ExtMatrixRow struct {
	Config    string
	Injector  string
	Trials    int
	Recovered int // no error, exactly the original bytes
	Detected  int // an error: uncorrectable or corrupt
	Digest    int // of Detected, the ones only the chunk digest caught
	Silent    int // no error, wrong bytes — the outcome ARC exists to prevent
}

// ExtResilienceMatrix runs every AllConfigs() entry against
// faultinject.Patterns() and a 4-byte burst in both header and payload,
// anywhere in a one-chunk container decoded by core.DecodeContainer,
// and against a three-chunk stream, read to its end, that stops inside
// a chunk, repeats one, or has two swapped.
func ExtResilienceMatrix(payloadBytes, trials int, seed int64) (*ExtMatrixResult, error) {
	if payloadBytes <= 0 {
		payloadBytes = 64 << 10
	}
	if trials <= 0 {
		trials = 100
	}
	payload := randomBytes(payloadBytes, seed)
	res := &ExtMatrixResult{}
	for _, cfg := range core.AllConfigs() {
		choice := core.Choice{Config: cfg, Threads: 1}
		one, err := core.EncodeContainerWith(nil, payload, choice)
		if err != nil {
			return nil, err
		}
		var stream chunks
		w, err := (&core.Engine{}).NewChunkWriterChoice(&stream, choice,
			core.StreamOptions{ChunkSize: (len(payload) + 2) / 3, Pipeline: 1})
		if err == nil {
			_, err = w.Write(payload)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			return nil, err
		}
		injectors := append(faultinject.Patterns(), headerAndPayload{})
		for _, kind := range []string{"truncated", "duplicated", "reordered"} {
			injectors = append(injectors, chunkFault{kind, stream})
		}
		for _, inj := range injectors {
			protected, decode := one.Encoded, decodeOne
			if _, ok := inj.(chunkFault); ok {
				protected, decode = bytes.Join(stream, nil), decodeStream
			}
			digest := 0
			v := faultinject.RunRepairCampaign(protected, payload, inj, func(mut []byte) ([]byte, error) {
				got, err := decode(mut)
				if errors.Is(err, core.ErrDigestMismatch) {
					digest++
				}
				return got, err
			}, trials, seed)
			res.Rows = append(res.Rows, ExtMatrixRow{
				Config: cfg.String(), Injector: inj.Name(), Trials: trials,
				Recovered: v.Repaired, Detected: v.Reported, Digest: digest, Silent: v.Silent,
			})
		}
	}
	return res, nil
}

func decodeOne(container []byte) ([]byte, error) {
	res, err := core.DecodeContainer(nil, container, 1)
	if res == nil {
		return nil, err
	}
	return res.Data, err
}

func decodeStream(stream []byte) ([]byte, error) {
	return io.ReadAll(core.NewChunkReaderWith(bytes.NewReader(stream), 1, core.StreamOptions{}))
}

// headerAndPayload bursts 4 bytes of a container's replicated header
// and 4 of its payload at once.
type headerAndPayload struct{}

func (headerAndPayload) Name() string { return "header+payload" }

func (headerAndPayload) Inject(buf []byte, rng *rand.Rand) []byte {
	burst, h := faultinject.Burst{Bytes: 4}, core.ContainerOverheadBytes
	return append(burst.Inject(buf[:h], rng), burst.Inject(buf[h:], rng)...)
}

// chunks records a stream as a chunk writer emits it: one Write a chunk.
type chunks [][]byte

func (c *chunks) Write(p []byte) (int, error) {
	*c = append(*c, bytes.Clone(p))
	return len(p), nil
}

// chunkFault damages a stream of chunks by kind: it stops inside a
// random chunk, repeats one, or swaps two.
type chunkFault struct {
	kind   string
	chunks chunks
}

func (f chunkFault) Name() string { return f.kind }

// Inject ignores buf: it is the stream the recorded chunks make up.
func (f chunkFault) Inject(_ []byte, rng *rand.Rand) []byte {
	c := slices.Clone(f.chunks)
	i := rng.Intn(len(c))
	switch f.kind {
	case "truncated":
		c = append(c[:i], c[i][:1+rng.Intn(len(c[i])-1)])
	case "duplicated":
		c = slices.Insert(c, i, c[i])
	default:
		j := (i + 1 + rng.Intn(len(c)-1)) % len(c)
		c[i], c[j] = c[j], c[i]
	}
	return bytes.Join(c, nil)
}

// Table renders the matrix.
func (r *ExtMatrixResult) Table() *Table {
	t := &Table{
		Title:  "Extension: ECC method x fault pattern recovery matrix",
		Header: []string{"config", "fault", "trials", "recovered", "detected-lost", "caught by digest", "silent"},
		Caption: "\"caught by digest\": detections only the chunk digest made — bytes the ECC passed as clean or\n" +
			"repaired (a miscorrection) or a chunk out of its place. Silent must be 0.",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Config, row.Injector, iS(row.Trials), iS(row.Recovered), iS(row.Detected), iS(row.Digest), iS(row.Silent))
	}
	return t
}
