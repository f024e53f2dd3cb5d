package checkpoint

// The field codec Save/Load and ArchiveWriter/LoadArchive share. A
// stored field is a header — compressor name (a length byte, then the
// name), error bound (float64 bits, little-endian) and dims (a count
// byte, then each dim as a little-endian uint32) — and its compressed
// bytes.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/pressio"
)

// field is one compressed field and what it takes to reverse it.
type field struct {
	compressor string
	bound      float64
	dims       []int
	compressed []byte
}

// compressField compresses data (row-major, dims as in the compressors)
// with opts' compressor and bound; opts has its defaults applied.
func compressField(data []float64, dims []int, opts Options) (field, error) {
	for _, d := range dims {
		if d < 0 || int64(d) > math.MaxUint32 {
			return field{}, fmt.Errorf("checkpoint: dimension %d does not fit the header's 32 bits", d)
		}
	}
	comp, err := pressio.New(opts.Compressor, opts.Bound)
	if err != nil {
		return field{}, err
	}
	compressed, err := comp.Compress(data, dims)
	if err != nil {
		return field{}, err
	}
	return field{opts.Compressor, opts.Bound, slices.Clone(dims), compressed}, nil
}

// appendHeader appends f's header to b.
func (f *field) appendHeader(b []byte) []byte {
	b = appendString(b, f.compressor)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.bound))
	b = append(b, byte(len(f.dims)))
	for _, d := range f.dims {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

// parseFieldHeader parses a header off the front of p and returns the
// bytes after it.
func parseFieldHeader(p []byte) (field, []byte, error) {
	var f field
	var ok bool
	if f.compressor, p, ok = cutString(p); !ok {
		return f, nil, fmt.Errorf("%w: truncated compressor name", ErrFormat)
	}
	if len(p) < 9 {
		return f, nil, fmt.Errorf("%w: truncated bound", ErrFormat)
	}
	f.bound = math.Float64frombits(binary.LittleEndian.Uint64(p))
	nd := int(p[8])
	p = p[9:]
	if nd < 1 || nd > 3 || len(p) < 4*nd {
		return f, nil, fmt.Errorf("%w: bad dims", ErrFormat)
	}
	f.dims = make([]int, nd)
	for i := range f.dims {
		f.dims[i] = int(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return f, p[4*nd:], nil
}

// decompress reverses compressField. The header's shape and the
// compressor stream's must be one shape: a header that survived ECC
// with the wrong dims (a miscorrection, a spliced file) would otherwise
// load as whatever the stream says.
func (f *field) decompress() ([]float64, error) {
	comp, err := pressio.New(f.compressor, f.bound)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	data, dims, err := comp.Decompress(f.compressed)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(f.dims, dims) {
		return nil, fmt.Errorf("%w: header dims %v, compressed stream dims %v", ErrFormat, f.dims, dims)
	}
	return data, nil
}

// appendString appends s behind a length byte; len(s) <= 255.
func appendString(b []byte, s string) []byte {
	return append(append(b, byte(len(s))), s...)
}

// cutString splits what appendString wrote off the front of p.
func cutString(p []byte) (s string, rest []byte, ok bool) {
	if len(p) == 0 || len(p) <= int(p[0]) {
		return "", nil, false
	}
	n := int(p[0])
	return string(p[1 : 1+n]), p[1+n:], true
}
