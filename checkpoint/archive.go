package checkpoint

// Multi-field archives: real simulation checkpoints carry many named
// variables (pressure, temperature, velocity components, ...). An
// Archive packs any number of named fields — each with its own
// compressor configuration — into a single ARC-protected stream.

import (
	"encoding/binary"
	"fmt"
	"io"

	arc "repro"
)

const (
	archiveMagic   = "ACKA"
	archiveVersion = 1
	// maxArchiveFields bounds header-driven allocations.
	maxArchiveFields = 1 << 16
)

// ArchiveWriter accumulates named fields and writes them as one
// protected stream.
type ArchiveWriter struct {
	fields []archiveField
}

type archiveField struct {
	name string
	field
}

// NewArchiveWriter creates an empty archive.
func NewArchiveWriter() *ArchiveWriter { return &ArchiveWriter{} }

// Add compresses a field under the given per-field options and queues
// it. Field names must be unique and at most 255 bytes.
func (aw *ArchiveWriter) Add(name string, data []float64, dims []int, opts Options) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("checkpoint: invalid field name %q", name)
	}
	for _, f := range aw.fields {
		if f.name == name {
			return fmt.Errorf("checkpoint: duplicate field %q", name)
		}
	}
	f, err := compressField(data, dims, opts.withDefaults())
	if err != nil {
		return fmt.Errorf("checkpoint: field %q: %w", name, err)
	}
	aw.fields = append(aw.fields, archiveField{name, f})
	return nil
}

// Fields returns the names queued so far, in insertion order.
func (aw *ArchiveWriter) Fields() []string {
	out := make([]string, len(aw.fields))
	for i, f := range aw.fields {
		out[i] = f.name
	}
	return out
}

// WriteTo protects the archive with ARC under the given constraints
// and writes it to w. The archive (including all metadata) travels
// inside the ARC stream: after the magic, version and field count, each
// field is its name, its field header, its compressed length and its
// compressed bytes.
func (aw *ArchiveWriter) WriteTo(w io.Writer, a *arc.ARC, mem, bw float64, res arc.Resiliency, chunkBytes int) error {
	head := append([]byte(archiveMagic), archiveVersion)
	parts := [][]byte{binary.LittleEndian.AppendUint32(head, uint32(len(aw.fields)))}
	for _, f := range aw.fields {
		h := f.appendHeader(appendString(nil, f.name))
		parts = append(parts, binary.LittleEndian.AppendUint32(h, uint32(len(f.compressed))), f.compressed)
	}
	_, err := protect(w, a, mem, bw, res, chunkBytes, parts...)
	return err
}

// ArchiveField is one loaded field.
type ArchiveField struct {
	Name       string
	Compressor string
	Bound      float64
	Dims       []int
	Data       []float64
}

// Archive is a loaded multi-field checkpoint.
type Archive struct {
	Fields  []ArchiveField
	Repairs arc.StreamReport
}

// Get returns a field by name (nil when absent).
func (ar *Archive) Get(name string) *ArchiveField {
	for i := range ar.Fields {
		if ar.Fields[i].Name == name {
			return &ar.Fields[i]
		}
	}
	return nil
}

// LoadArchive reads an archive from r, repairing soft errors through
// ARC and decompressing every field.
func LoadArchive(r io.Reader, workers int) (*Archive, error) {
	p, rep, err := open(r, workers, archiveMagic, archiveVersion)
	if err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: truncated field count", ErrFormat)
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if count < 0 || count > maxArchiveFields {
		return nil, fmt.Errorf("%w: implausible field count %d", ErrFormat, count)
	}
	ar := &Archive{Repairs: rep}
	for i := 0; i < count; i++ {
		name, rest, ok := cutString(p)
		if !ok {
			return nil, fmt.Errorf("%w: field %d name", ErrFormat, i)
		}
		f, rest, err := parseFieldHeader(rest)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: field %q: %w", name, err)
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: field %q length", ErrFormat, name)
		}
		clen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if clen < 0 || clen > len(rest) {
			return nil, fmt.Errorf("%w: field %q length %d", ErrFormat, name, clen)
		}
		f.compressed, p = rest[:clen], rest[clen:]
		data, err := f.decompress()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: field %q: %w", name, err)
		}
		ar.Fields = append(ar.Fields, ArchiveField{
			Name:       name,
			Compressor: f.compressor,
			Bound:      f.bound,
			Dims:       f.dims,
			Data:       data,
		})
	}
	return ar, nil
}
