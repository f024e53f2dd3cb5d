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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	arc "repro"
	"repro/internal/pressio"
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
	for _, d := range dims {
		if d < 0 || int64(d) > math.MaxUint32 {
			return nil, fmt.Errorf("checkpoint: dimension %d does not fit the header's 32 bits", d)
		}
	}
	comp, err := pressio.New(opts.Compressor, opts.Bound)
	if err != nil {
		return nil, err
	}
	compressed, err := comp.Compress(data, dims)
	if err != nil {
		return nil, err
	}
	if len(opts.Compressor) > 255 {
		return nil, fmt.Errorf("checkpoint: compressor name too long")
	}
	hdr := make([]byte, 0, len(magic)+3+len(opts.Compressor)+8+4*len(dims))
	hdr = append(hdr, magic...)
	hdr = append(hdr, version, byte(len(opts.Compressor)))
	hdr = append(hdr, opts.Compressor...)
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(opts.Bound))
	hdr = append(hdr, byte(len(dims)))
	for _, d := range dims {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d))
	}

	aw, err := a.NewWriter(w, opts.Mem, opts.BW, opts.Resiliency, opts.ChunkBytes)
	if err != nil {
		return nil, err
	}
	// Header and field go in as two writes: the chunk writer cuts the
	// stream by byte count, so it is the stream one write of both makes,
	// without a second copy of the field to put them side by side.
	if _, err := aw.Write(hdr); err != nil {
		return nil, err
	}
	if _, err := aw.Write(compressed); err != nil {
		return nil, err
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	return &Info{
		Compressor:      opts.Compressor,
		Bound:           opts.Bound,
		Dims:            append([]int(nil), dims...),
		Elements:        len(data),
		CompressedBytes: len(compressed),
		Choice:          aw.Choice(),
	}, nil
}

// Load reads a checkpoint from r, repairing soft errors through ARC,
// and decompresses the field. workers bounds the parallelism of the
// ARC stream's chunk decode only. A field above 2^18 values is stored
// as slabs (see internal/pressio), and those decompress on every core,
// GOMAXPROCS at a time, whatever workers says.
func Load(r io.Reader, workers int) ([]float64, []int, *Info, error) {
	ar := arc.NewReader(r, workers)
	// WriteTo, not io.ReadAll: the reader hands over whole repaired
	// chunks (4 MiB by default), so the buffer is sized once for a
	// one-chunk checkpoint and doubles past that, where reading in small
	// pieces allocates five times the payload in growth steps.
	var buf bytes.Buffer
	if _, err := ar.WriteTo(&buf); err != nil {
		return nil, nil, nil, err
	}
	payload := buf.Bytes()
	rd := bytes.NewReader(payload)
	hdr := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(rd, hdr); err != nil || string(hdr[:len(magic)]) != magic {
		return nil, nil, nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if hdr[len(magic)] != version {
		return nil, nil, nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, hdr[len(magic)])
	}
	nameLen := int(hdr[len(magic)+1])
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(rd, nameBuf); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: truncated name", ErrFormat)
	}
	var scratch [8]byte
	if _, err := io.ReadFull(rd, scratch[:]); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: truncated bound", ErrFormat)
	}
	bound := math.Float64frombits(binary.LittleEndian.Uint64(scratch[:]))
	nd := make([]byte, 1)
	if _, err := io.ReadFull(rd, nd); err != nil || nd[0] < 1 || nd[0] > 3 {
		return nil, nil, nil, fmt.Errorf("%w: bad dims", ErrFormat)
	}
	dims := make([]int, nd[0])
	for i := range dims {
		if _, err := io.ReadFull(rd, scratch[:4]); err != nil {
			return nil, nil, nil, fmt.Errorf("%w: truncated dims", ErrFormat)
		}
		dims[i] = int(binary.LittleEndian.Uint32(scratch[:4]))
	}
	compressed := payload[len(payload)-rd.Len():]
	comp, err := pressio.New(string(nameBuf), bound)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	data, gotDims, err := comp.Decompress(compressed)
	if err != nil {
		return nil, nil, nil, err
	}
	// The header's shape and the compressor stream's must be one shape:
	// a header that survived ECC with the wrong dims (a miscorrection, a
	// spliced file) would otherwise load as whatever the stream says.
	if !slices.Equal(dims, gotDims) {
		return nil, nil, nil, fmt.Errorf("%w: header dims %v, compressed stream dims %v", ErrFormat, dims, gotDims)
	}
	info := &Info{
		Compressor:      string(nameBuf),
		Bound:           bound,
		Dims:            gotDims,
		Elements:        len(data),
		CompressedBytes: len(compressed),
		Repairs:         ar.Report(),
	}
	return data, gotDims, info, nil
}
