package arc

// File-level convenience API: protect and recover whole files without
// holding both the plain and encoded forms in memory at once (the
// streaming chunk format bounds the working set to one chunk per
// pipeline slot).

import (
	"fmt"
	"io"
	"os"
)

// EncodeFileWith protects the file at src, writing the ARC stream to
// dst. Constraints follow Encode; opts sets the chunk size (<= 0
// selects the default) and encode pipelining. It returns the
// configuration choice and the encoded size. File archives are always
// written in container v2 — the footer index costs a few dozen bytes
// per chunk and buys ReaderAt random access — so opts.Indexed is
// forced on; callers needing a bare v1 stream can use NewWriterWith
// directly.
func (a *ARC) EncodeFileWith(src, dst string, mem, bw float64, res Resiliency, opts StreamOptions) (Choice, int64, error) {
	opts.Indexed = true
	in, err := os.Open(src)
	if err != nil {
		return Choice{}, 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return Choice{}, 0, err
	}
	w, err := a.NewWriterWith(out, mem, bw, res, opts)
	if err != nil {
		_ = out.Close() // error path: the open error wins
		return Choice{}, 0, err
	}
	if _, err := io.Copy(w, in); err != nil {
		_ = w.Close()   // error path: join in-flight encodes
		_ = out.Close() // error path: the copy error wins
		return Choice{}, 0, fmt.Errorf("arc: encode %s: %w", src, err)
	}
	if err := w.Close(); err != nil {
		_ = out.Close() // error path: the close error wins
		return Choice{}, 0, err
	}
	if err := out.Close(); err != nil {
		return Choice{}, 0, err
	}
	return w.Choice(), w.BytesWritten(), nil
}

// DecodeFileWith verifies and repairs the ARC stream at src, writing
// the recovered payload to dst; opts sets decode pipelining
// (read-ahead). The returned report aggregates repairs over all
// chunks. Uncorrectable damage aborts with an error after writing
// every chunk that preceded it.
func DecodeFileWith(src, dst string, workers int, opts StreamOptions) (StreamReport, error) {
	in, err := os.Open(src)
	if err != nil {
		return StreamReport{}, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return StreamReport{}, err
	}
	r := NewReaderWith(in, workers, opts)
	defer r.Close()
	_, cerr := io.Copy(out, r)
	if err := out.Close(); err != nil && cerr == nil {
		cerr = err
	}
	if cerr != nil {
		return r.Report(), fmt.Errorf("arc: decode %s: %w", src, cerr)
	}
	return r.Report(), nil
}
