package pressio

// The slab container. A field of more than slabElems values is cut
// along dims[0] into slabs of about slabElems values each, and every
// slab is compressed as a complete SZ or ZFP stream of its own rows.
// The streams go behind a small index:
//
//	"PSLB" | ndims u8 | dims u32 x ndims | length u32 x count | streams
//
// (little endian), where count is the number of slabs the cut makes of
// dims. The cut depends on dims alone, never on the worker count, so
// the bytes are the same on any machine. A field at or below slabElems
// values stays one bare codec stream, byte for byte what the codec
// writes.
//
// Slabs are independent, which is what lets both directions run them
// on every core (Dube et al. use block independence as the unit of
// parallelism in the same way), and a flip inside one slab's stream
// can damage only that slab's rows.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/parallel"
	"repro/internal/safecast"
	"repro/internal/sz"
	"repro/internal/zfp"
)

const (
	slabMagic = "PSLB"
	// slabElems is both the threshold above which a field is cut and
	// the size a slab aims at.
	slabElems = 1 << 18
	// slabRowStep keeps every cut on a ZFP block boundary: a ZFP slab
	// holds exactly the blocks its rows have in the whole field.
	slabRowStep = 4
	// maxElements and maxDim are the codecs' own caps on what a header
	// may claim.
	maxElements = 1 << 27
	maxDim      = 1 << 28
)

// codec is one compressor's decoder, split where the slab container
// needs it.
type codec struct {
	// open checks a stream's header, after undoing SZ's lossless stage,
	// and returns what decode takes with the dims the stream claims. It
	// allocates only as the stream's bytes bear out, so every slab can
	// be held to its cut before the output is sized: the container then
	// costs what its slabs would cost the codec one by one.
	open func(buf []byte) ([]byte, []int, error)
	// decode writes an opened stream's values to dst (nil allocates).
	decode func(dst []float64, stream []byte) ([]float64, []int, error)
	// corrupt is the codec's ErrCorrupt; index errors wrap it, so a
	// caller sees one error class per codec whether or not the field
	// was cut.
	corrupt error
}

var (
	szCodec  = codec{open: sz.Inflate, decode: sz.DecodePayload, corrupt: sz.ErrCorrupt}
	zfpCodec = codec{open: func(buf []byte) ([]byte, []int, error) {
		dims, err := zfp.Dims(buf)
		return buf, dims, err
	}, decode: zfp.Decompress, corrupt: zfp.ErrCorrupt}
)

// cut returns how many rows of dims[0] a slab holds (the last one may
// hold fewer) and how many slabs there are. dims must be valid: 1 to 3
// positive dimensions.
func cut(dims []int) (rows, count int) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n <= slabElems {
		return dims[0], 1
	}
	row := n / dims[0]
	// The multiple of slabRowStep rows nearest to slabElems values.
	rows = max(slabRowStep, (slabElems+row*slabRowStep/2)/(row*slabRowStep)*slabRowStep)
	return rows, (dims[0] + rows - 1) / rows
}

// slabDims returns the dims of a slab of the given row count.
func slabDims(dims []int, rows int) []int {
	return append([]int{rows}, dims[1:]...)
}

// cuttable reports whether data and dims describe a field the cut
// applies to; anything else goes to the codec whole, which reports
// what is wrong with it.
func cuttable(data []float64, dims []int) bool {
	if len(dims) < 1 || len(dims) > 3 {
		return false
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return false
		}
		n *= d
	}
	return n == len(data)
}

// compress compresses data with enc, one stream per slab behind the
// index when the field is cut, and the bare stream otherwise.
func compress(data []float64, dims []int, enc func([]float64, []int) ([]byte, error)) ([]byte, error) {
	if !cuttable(data, dims) {
		return enc(data, dims)
	}
	rows, count := cut(dims)
	if count == 1 {
		return enc(data, dims)
	}
	row := len(data) / dims[0]
	streams := make([][]byte, count)
	// One goroutine per slab: the runtime keeps GOMAXPROCS of them
	// running, and a core that finishes a slab takes up the next instead
	// of idling behind a fixed share. ForErr returns the first error in
	// slab order and hands a panic back to the caller.
	err := parallel.ForErr(count, count, func(k, _ int) error {
		lo, hi := k*rows, min((k+1)*rows, dims[0])
		s, err := enc(data[lo*row:hi*row], slabDims(dims, hi-lo))
		streams[k] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	size := len(slabMagic) + 1 + 4*len(dims) + 4*count
	for _, s := range streams {
		size += len(s)
	}
	out := make([]byte, 0, size)
	out = append(out, slabMagic...)
	out = append(out, safecast.U8(len(dims)))
	for _, d := range dims {
		out = binary.LittleEndian.AppendUint32(out, safecast.U32(d))
	}
	for _, s := range streams {
		out = binary.LittleEndian.AppendUint32(out, safecast.U32(len(s)))
	}
	for _, s := range streams {
		out = append(out, s...)
	}
	return out, nil
}

// decompress reverses compress. A slab container's output is allocated
// once, after every slab has been opened and its dims held to the cut,
// and every slab decodes straight into its own rows of it.
func decompress(buf []byte, c codec) ([]float64, []int, error) {
	if len(buf) < len(slabMagic) || string(buf[:len(slabMagic)]) != slabMagic {
		stream, _, err := c.open(buf)
		if err != nil {
			return nil, nil, err
		}
		return c.decode(nil, stream)
	}
	dims, rows, streams, err := parseIndex(buf, c)
	if err != nil {
		return nil, nil, err
	}
	row := 1
	for _, d := range dims[1:] {
		row *= d
	}
	slabErr := func(k int, err error) error {
		if err != nil {
			return fmt.Errorf("pressio: slab %d of %d: %w", k, len(streams), err)
		}
		return nil
	}
	err = parallel.ForErr(len(streams), len(streams), func(k, _ int) error {
		stream, got, err := c.open(streams[k])
		if want := slabDims(dims, min((k+1)*rows, dims[0])-k*rows); err == nil && !slices.Equal(got, want) {
			err = fmt.Errorf("%w: stream dims %v, cut dims %v", c.corrupt, got, want)
		}
		streams[k] = stream
		return slabErr(k, err)
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, dims[0]*row)
	err = parallel.ForErr(len(streams), len(streams), func(k, _ int) error {
		lo, hi := k*rows, min((k+1)*rows, dims[0])
		_, _, err := c.decode(out[lo*row:hi*row], streams[k])
		return slabErr(k, err)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, dims, nil
}

// parseIndex checks a slab container's index against itself and the
// bytes behind it, and returns the field's dims, the rows per slab and
// each slab's stream. Every claim is bounded before it sizes anything:
// dims by the codecs' caps, the slab count by the cut of those dims,
// and the lengths must add up to exactly the bytes that follow the
// index. What each stream claims is the codec's to check (codec.open).
func parseIndex(buf []byte, c codec) (dims []int, rows int, streams [][]byte, err error) {
	bad := func(format string, args ...any) ([]int, int, [][]byte, error) {
		return nil, 0, nil, fmt.Errorf("%w: slab index: "+format, append([]any{c.corrupt}, args...)...)
	}
	rest := buf[len(slabMagic):]
	if len(rest) < 1 || rest[0] < 1 || rest[0] > 3 {
		return bad("bad ndims")
	}
	dims = make([]int, rest[0])
	rest = rest[1:]
	n := 1
	for i := range dims {
		if len(rest) < 4 {
			return bad("truncated dims")
		}
		d := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if d == 0 || d > maxDim {
			return bad("bad dimension %d", d)
		}
		dims[i] = int(d)
		n *= dims[i]
		if n > maxElements {
			return bad("element count overflows cap")
		}
	}
	rows, count := cut(dims)
	// A field the cut leaves whole is a bare stream, never an index.
	if count == 1 {
		return bad("dims %v are not cut", dims)
	}
	if len(rest) < 4*count {
		return bad("truncated slab lengths: dims %v cut into %d slabs", dims, count)
	}
	lengths, rest := rest[:4*count], rest[4*count:]
	streams = make([][]byte, count)
	for k := range streams {
		l := binary.LittleEndian.Uint32(lengths[4*k:])
		if uint64(l) > uint64(len(rest)) {
			return bad("slab %d claims %d bytes, %d remain", k, l, len(rest))
		}
		streams[k], rest = rest[:l], rest[l:]
	}
	if len(rest) != 0 {
		return bad("%d bytes after the last slab", len(rest))
	}
	return dims, rows, streams, nil
}
