package sz

// Region-parallel compression: the field is split into independent
// slabs along the slowest dimension, each compressed as a complete SZ
// stream, concatenated behind a small index. This mirrors the
// OpenMP-parallel operation mode of SZ in production deployments, and
// has a resiliency side effect the fault study cares about: a bit flip
// desynchronizes at most one region instead of the whole stream.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/safecast"
)

const regionMagic = "SZR1"

// maxRegions bounds the region index a corrupted header can claim.
const maxRegions = 1 << 20

// CompressRegions compresses data in `regions` independent slabs along
// dims[0], optionally in parallel (workers as in internal/parallel).
// regions <= 1 falls back to plain Compress.
func CompressRegions(data []float64, dims []int, opts Options, regions, workers int) ([]byte, error) {
	if err := checkDims(data, dims); err != nil {
		return nil, err
	}
	if regions <= 1 {
		return Compress(data, dims, opts)
	}
	if regions > dims[0] {
		regions = dims[0] // at least one row of the slowest dim each
	}
	rowSize := len(data) / dims[0]
	bounds := make([]int, regions+1) // row boundaries
	for r := 0; r <= regions; r++ {
		bounds[r] = r * dims[0] / regions
	}
	streams := make([][]byte, regions)
	err := parallel.ForErr(regions, workers, func(lo, hi int) error {
		for r := lo; r < hi; r++ {
			rows := bounds[r+1] - bounds[r]
			slabDims := append([]int{rows}, dims[1:]...)
			slab := data[bounds[r]*rowSize : bounds[r+1]*rowSize]
			s, err := Compress(slab, slabDims, opts)
			if err != nil {
				return fmt.Errorf("sz: region %d: %w", r, err)
			}
			streams[r] = s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.WriteString(regionMagic)
	putU32(&out, safecast.U32(regions))
	for _, s := range streams {
		putU32(&out, safecast.U32(len(s)))
	}
	for _, s := range streams {
		out.Write(s)
	}
	return out.Bytes(), nil
}

// DecompressRegions reverses CompressRegions (and transparently
// handles plain streams). workers parallelizes region decompression.
func DecompressRegions(buf []byte, workers int) ([]float64, []int, error) {
	if len(buf) < len(regionMagic) || string(buf[:len(regionMagic)]) != regionMagic {
		return Decompress(buf)
	}
	rd := buf[len(regionMagic):]
	if len(rd) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated region count", ErrCorrupt)
	}
	regions := int(binary.LittleEndian.Uint32(rd))
	rd = rd[4:]
	if regions < 1 || regions > maxRegions {
		return nil, nil, fmt.Errorf("%w: implausible region count %d", ErrCorrupt, regions)
	}
	if len(rd) < 4*regions {
		return nil, nil, fmt.Errorf("%w: truncated region index", ErrCorrupt)
	}
	lengths := make([]int, regions)
	total := 0
	for r := range lengths {
		lengths[r] = int(binary.LittleEndian.Uint32(rd[4*r:]))
		if lengths[r] < 0 || lengths[r] > len(buf) {
			return nil, nil, fmt.Errorf("%w: implausible region length", ErrCorrupt)
		}
		total += lengths[r]
	}
	rd = rd[4*regions:]
	if total > len(rd) {
		return nil, nil, fmt.Errorf("%w: region index exceeds payload", ErrCorrupt)
	}
	offs := make([]int, regions+1)
	for r := 0; r < regions; r++ {
		offs[r+1] = offs[r] + lengths[r]
	}
	type slab struct {
		data []float64
		dims []int
	}
	slabs := make([]slab, regions)
	err := parallel.ForErr(regions, workers, func(lo, hi int) error {
		for r := lo; r < hi; r++ {
			d, dims, err := Decompress(rd[offs[r]:offs[r+1]])
			if err != nil {
				return fmt.Errorf("region %d: %w", r, err)
			}
			slabs[r] = slab{d, dims}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Stitch along dim 0; trailing dims must agree across slabs.
	base := slabs[0].dims
	rows := 0
	n := 0
	for r, s := range slabs {
		if len(s.dims) != len(base) {
			return nil, nil, fmt.Errorf("%w: region %d dimensionality differs", ErrCorrupt, r)
		}
		for i := 1; i < len(base); i++ {
			if s.dims[i] != base[i] {
				return nil, nil, fmt.Errorf("%w: region %d shape differs", ErrCorrupt, r)
			}
		}
		rows += s.dims[0]
		n += len(s.data)
	}
	out := make([]float64, 0, n)
	for _, s := range slabs {
		out = append(out, s.data...)
	}
	dims := append([]int{rows}, base[1:]...)
	return out, dims, nil
}
