package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"

	arc "repro"
	"repro/internal/core"
	"repro/internal/datasets"
)

// FuzzCheckpointLoad protects arbitrary plaintext under secded64 and
// hands the stream to Load (even selector) or LoadArchive (odd). Either
// may refuse it, but neither may panic, and a field that loads has one
// to three dims whose product is its length.
func FuzzCheckpointLoad(f *testing.F) {
	cesm := datasets.CESM(8, 16, 1)
	nyx := datasets.NYX(4, 4, 4, 2)
	sz, err := compressField(cesm.Data, cesm.Dims, Options{Compressor: "SZ-ABS", Bound: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	zfp, err := compressField(nyx.Data, nyx.Dims, Options{Compressor: "ZFP-ACC", Bound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	single := append(sz.appendHeader(append([]byte(magic), version)), sz.compressed...)
	archive := binary.LittleEndian.AppendUint32(append([]byte(archiveMagic), archiveVersion), 2)
	for _, af := range []archiveField{{"cesm", sz}, {"nyx", zfp}} {
		archive = af.appendHeader(appendString(archive, af.name))
		archive = binary.LittleEndian.AppendUint32(archive, uint32(len(af.compressed)))
		archive = append(archive, af.compressed...)
	}
	f.Add(single, uint8(0))
	f.Add(archive, uint8(1))
	f.Add(single, uint8(1))
	f.Add(archive, uint8(0))
	choice := arc.Choice{Config: core.Config{Method: arc.SECDED, Param: 64}, Threads: 1}
	f.Fuzz(func(t *testing.T, plain []byte, sel uint8) {
		if len(plain) > 1<<20 {
			return
		}
		enc, err := arc.EncodeContainer(plain, choice)
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(enc.Encoded)
		if sel%2 == 0 {
			data, dims, _, err := Load(r, 1)
			if err == nil {
				checkShape(t, "checkpoint", dims, data)
			}
			return
		}
		ar, err := LoadArchive(r, 1)
		if err != nil {
			return
		}
		for _, af := range ar.Fields {
			checkShape(t, af.Name, af.Dims, af.Data)
		}
	})
}

// checkShape fails t unless dims has one to three entries whose
// product is len(data).
func checkShape(t *testing.T, name string, dims []int, data []float64) {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	if len(dims) < 1 || len(dims) > 3 || n != len(data) {
		t.Fatalf("%s: dims %v for %d values", name, dims, len(data))
	}
}
