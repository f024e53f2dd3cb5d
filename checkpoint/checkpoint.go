// Package checkpoint combines the repository's two layers into the
// paper's end-to-end use case: lossy-compressed, ARC-protected
// checkpoints of floating-point fields. Save compresses a field with a
// chosen compressor configuration and wraps the result (plus the
// metadata needed to reverse it) in an ARC stream; Load repairs any
// soft errors accumulated at rest, then decompresses.
//
// Everything in the checkpoint — including its own metadata header —
// travels inside the ARC stream, so there is no unprotected byte in
// the file.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	arc "repro"
)

const (
	magic   = "ACKP"
	version = 1
)

// ErrFormat reports a stream that is not a checkpoint (or has a
// corrupted header beyond ARC's repair).
var ErrFormat = errors.New("checkpoint: invalid format")

// Options configures Save.
type Options struct {
	// Compressor names the lossy configuration (a pressio name:
	// SZ-ABS, SZ-PWREL, SZ-PSNR, ZFP-ACC, ZFP-Rate). Empty selects
	// SZ-ABS.
	Compressor string
	// Bound is the compressor's error-bounding parameter (0 selects
	// 1e-3 absolute).
	Bound float64
	// Mem, BW, Resiliency are ARC's constraints (zero values lift
	// memory/throughput; Resiliency zero value = ARC_ANY_ECC).
	Mem        float64
	BW         float64
	Resiliency arc.Resiliency
	// ChunkBytes sizes the ARC stream chunks (0 = default).
	ChunkBytes int
}

func (o Options) withDefaults() Options {
	if o.Compressor == "" {
		o.Compressor = "SZ-ABS"
	}
	if o.Bound == 0 {
		o.Bound = 1e-3
	}
	if o.Mem == 0 {
		o.Mem = arc.AnyMem
	}
	return o
}

// Info describes a saved or loaded checkpoint.
type Info struct {
	Compressor      string
	Bound           float64
	Dims            []int
	Elements        int
	CompressedBytes int
	// Choice is the ECC configuration ARC selected (Save only).
	Choice arc.Choice
	// Repairs aggregates ARC's repair report (Load only).
	Repairs arc.StreamReport
}

// Save compresses data (row-major, dims as in the compressors) and
// writes a protected checkpoint to w.
func Save(w io.Writer, a *arc.ARC, data []float64, dims []int, opts Options) (*Info, error) {
	opts = opts.withDefaults()
	f, err := compressField(data, dims, opts)
	if err != nil {
		return nil, err
	}
	hdr := f.appendHeader(append([]byte(magic), version))
	choice, err := protect(w, a, opts.Mem, opts.BW, opts.Resiliency, opts.ChunkBytes, hdr, f.compressed)
	if err != nil {
		return nil, err
	}
	return &Info{
		Compressor:      f.compressor,
		Bound:           f.bound,
		Dims:            f.dims,
		Elements:        len(data),
		CompressedBytes: len(f.compressed),
		Choice:          choice,
	}, nil
}

// Load reads a checkpoint from r, repairing soft errors through ARC,
// and decompresses the field. workers bounds the parallelism of the
// ARC stream's chunk decode only. A field above 2^18 values is stored
// as slabs (see internal/pressio), and those decompress on every core,
// GOMAXPROCS at a time, whatever workers says.
func Load(r io.Reader, workers int) ([]float64, []int, *Info, error) {
	payload, rep, err := open(r, workers, magic, version)
	if err != nil {
		return nil, nil, nil, err
	}
	f, rest, err := parseFieldHeader(payload)
	if err != nil {
		return nil, nil, nil, err
	}
	f.compressed = rest
	data, err := f.decompress()
	if err != nil {
		return nil, nil, nil, err
	}
	info := &Info{
		Compressor:      f.compressor,
		Bound:           f.bound,
		Dims:            f.dims,
		Elements:        len(data),
		CompressedBytes: len(f.compressed),
		Repairs:         rep,
	}
	return data, f.dims, info, nil
}

// protect writes parts, in order, as one ARC stream to w under the
// given constraints, and closes the stream on every path so that a
// failed write leaves no encoder running. The chunk writer cuts the
// stream by byte count, so it is the stream one write of the parts
// joined would make, without the copy that joins them.
func protect(w io.Writer, a *arc.ARC, mem, bw float64, res arc.Resiliency, chunkBytes int, parts ...[]byte) (arc.Choice, error) {
	pw, err := a.NewWriterWith(w, mem, bw, res, arc.StreamOptions{ChunkSize: chunkBytes})
	if err != nil {
		return arc.Choice{}, err
	}
	for _, p := range parts {
		if _, err = pw.Write(p); err != nil {
			break
		}
	}
	// Close joins the encoders on every path; a write error wins.
	if cerr := pw.Close(); err == nil {
		err = cerr
	}
	return pw.Choice(), err
}

// open reads the ARC stream on r, repairing soft errors, and returns
// the payload after its magic and version, with what the repair did.
// workers bounds the parallelism of the chunk decode.
func open(r io.Reader, workers int, magic string, version byte) ([]byte, arc.StreamReport, error) {
	ar := arc.NewReader(r, workers)
	// WriteTo, not io.ReadAll: the reader hands over whole repaired
	// chunks (4 MiB by default), so the buffer is sized once for a
	// one-chunk stream and doubles past that, where reading in small
	// pieces allocates five times the payload in growth steps.
	var buf bytes.Buffer
	if _, err := ar.WriteTo(&buf); err != nil {
		return nil, arc.StreamReport{}, err
	}
	p := buf.Bytes()
	if len(p) <= len(magic) || string(p[:len(magic)]) != magic {
		return nil, arc.StreamReport{}, fmt.Errorf("%w: bad magic, want %q", ErrFormat, magic)
	}
	if p[len(magic)] != version {
		return nil, arc.StreamReport{}, fmt.Errorf("%w: unsupported %s version %d", ErrFormat, magic, p[len(magic)])
	}
	return p[len(magic)+1:], ar.Report(), nil
}
