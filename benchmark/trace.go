package main

// Tracing. Spans are recorded from the harness's own code, around the
// calls it makes into each layer; spans inside the program are a later
// change. To see the layers of one operation the harness issues it in
// its public stages, sequentially (one pipeline slot, one worker), and
// obtains the time inside the ECC codes, which no public stage
// exposes, by replaying the operation's chunks through the same code.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	arc "repro"
	"repro/internal/ecc"
	"repro/internal/pressio"
)

// span is one timed call into a layer. Spans of one operation share
// Op; Parent is the span that caused this one (0 for an operation's
// root). A replay span was measured after its parent ended, on the
// same bytes, and counts as the parent's child all the same.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Iter   int    `json:"iter"`
	Kind   string `json:"kind"` // save, load, repair or request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced variants run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
	iter  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

func (t *tracer) begin(name, kind string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Iter: t.iter, Kind: kind, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// replay records a span of duration d measured after its parent ended.
func (t *tracer) replay(name, kind string, parent, op int, d time.Duration) {
	if t == nil {
		return
	}
	id := t.begin(name, kind, parent, op)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Replay = s.Start+d.Nanoseconds(), true
	t.mu.Unlock()
}

// selfTimes returns, per iteration, each layer's self time in
// nanoseconds keyed by "kind/name": a span's duration minus its
// children's.
func (t *tracer) selfTimes() []map[string]float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []map[string]float64
	for _, s := range t.spans {
		for len(out) <= s.Iter {
			out = append(out, map[string]float64{})
		}
		out[s.Iter][s.Kind+"/"+s.Name] += float64(s.End - s.Start - child[s.ID])
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		_ = f.Close() // error path: the encode error wins
		return err
	}
	return f.Close()
}

// timedIO wraps a file so that every Read or Write is a span of its
// parent: the harness's view of the file system layer.
type timedIO struct {
	f      *os.File
	tr     *tracer
	name   string
	kind   string
	parent int
	op     int
}

func (t *timedIO) Read(p []byte) (int, error) {
	id := t.tr.begin(t.name, t.kind, t.parent, t.op)
	n, err := t.f.Read(p)
	t.tr.end(id)
	return n, err
}

func (t *timedIO) Write(p []byte) (int, error) {
	id := t.tr.begin(t.name, t.kind, t.parent, t.op)
	n, err := t.f.Write(p)
	t.tr.end(id)
	return n, err
}

func (t *timedIO) Close() error {
	id := t.tr.begin(t.name, t.kind, t.parent, t.op)
	err := t.f.Close()
	t.tr.end(id)
	return err
}

// allocMeter sums the bytes allocated inside chosen layer calls and
// the input bytes those calls processed. A nil meter measures nothing.
type allocMeter struct {
	bytes map[string]uint64
	input map[string]int64
}

func newAllocMeter() *allocMeter {
	return &allocMeter{bytes: map[string]uint64{}, input: map[string]int64{}}
}

// measure runs f and charges what it allocated to layer.
func (m *allocMeter) measure(layer string, input int64, f func()) {
	if m == nil {
		f()
		return
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	m.bytes[layer] += b.TotalAlloc - a.TotalAlloc
	m.input[layer] += input
}

func (m *allocMeter) perMB(layer string) float64 {
	if m.input[layer] == 0 {
		return 0
	}
	return float64(m.bytes[layer]) / (float64(m.input[layer]) / 1e6)
}

// compressorLayer names the layer behind a pressio configuration.
func compressorLayer(name string) string {
	return strings.ToLower(name[:strings.IndexByte(name, '-')]) // "SZ-ABS" -> "sz"
}

// streamEncode is the staged form of the stream encoder: src through
// an arc.Writer with one pipeline slot into the file at path, every
// file write a span (and every read of a timed src, which happens
// inside this stage). It returns the stream span's id for the ECC
// replay and the configuration the writer chose.
func (p *protected) streamEncode(tr *tracer, m *allocMeter, parent, op int, a *arc.ARC, src io.Reader, path string) (id int, choice arc.Choice, err error) {
	id = tr.begin("core.stream", opSave, parent, op)
	defer tr.end(id)
	if t, ok := src.(*timedIO); ok {
		t.parent = id
	}
	f, err := os.Create(path)
	if err != nil {
		return id, choice, err
	}
	out := &timedIO{f: f, tr: tr, name: "fs.write", kind: opSave, parent: id, op: op}
	m.measure("core.stream_encode", p.input, func() {
		var w *arc.Writer
		w, err = a.NewWriterWith(out, p.mem, arc.AnyBW, p.res, arc.StreamOptions{
			ChunkSize: p.chunk, Pipeline: 1, Indexed: !p.isCheckpoint(), // as EncodeFile and checkpoint.Save write them
		})
		if err != nil {
			return
		}
		choice = w.Choice()
		if _, err = io.Copy(w, src); err != nil {
			_ = w.Close() // error path: the copy error wins
			return
		}
		err = w.Close()
	})
	if err != nil {
		_ = f.Close() // error path: the encode error wins
		return id, choice, err
	}
	return id, choice, out.Close()
}

// streamDecode is the staged form of the stream decoder: the file at
// path through an arc.Reader with one pipeline slot and one worker
// into dst, every file read a span (and every write to a timed dst).
func (p *protected) streamDecode(tr *tracer, m *allocMeter, kind string, parent, op int, path string, dst io.Writer) (id int, rep arc.StreamReport, err error) {
	id = tr.begin("core.stream", kind, parent, op)
	defer tr.end(id)
	if t, ok := dst.(*timedIO); ok {
		t.parent = id
	}
	f, err := os.Open(path)
	if err != nil {
		return id, rep, err
	}
	defer f.Close()
	in := &timedIO{f: f, tr: tr, name: "fs.read", kind: kind, parent: id, op: op}
	m.measure("core.stream_decode", p.input, func() {
		r := arc.NewReaderWith(in, 1, arc.StreamOptions{Pipeline: 1})
		_, err = io.Copy(dst, r)
		rep = r.Report()
		_ = r.Close() // fully drained or failed; nothing in flight
	})
	return id, rep, err
}

// replayECC times the ECC code alone on the chunks of the protected
// file at path: encode of each chunk's plaintext for a save, decode of
// each chunk's stored payload otherwise. The result becomes a replay
// child of the stream span. The replay is held to the same ground
// truth as the operation: the stored bytes on encode, the plaintext
// and the injected faults on decode.
func (p *protected) replayECC(tr *tracer, kind string, parent, op int, path string) error {
	if tr == nil {
		return nil
	}
	stream, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	chunks, err := chunksOf(stream)
	if err != nil {
		return err
	}
	var scratch ecc.Scratch
	var buf []byte
	var total time.Duration
	var seen ecc.Report
	off := 0
	for _, c := range chunks {
		code, err := c.info.Config.BuildWithDeviceSize(1, c.info.DevSize)
		if err != nil {
			return err
		}
		plain := p.plain[off : off+c.info.OrigLen]
		off += c.info.OrigLen
		if kind == opSave {
			buf = ecc.GrowTo(buf, c.info.EncLen)
			t0 := time.Now()
			buf = ecc.EncodeTo(code, buf, plain, &scratch)
			total += time.Since(t0)
			if !bytes.Equal(buf, c.payload) {
				return fmt.Errorf("%s: replayed ECC encoding differs from the stored chunk", p.name)
			}
			continue
		}
		buf = ecc.GrowTo(buf, c.info.OrigLen)
		t0 := time.Now()
		got, rep, derr := ecc.DecodeTo(code, buf, c.payload, c.info.OrigLen, &scratch)
		total += time.Since(t0)
		if derr != nil || !bytes.Equal(got, plain) {
			return fmt.Errorf("%s: replayed ECC decode: wrong bytes or %v", p.name, derr)
		}
		seen.Merge(rep)
	}
	want := repairs{}
	if kind == opRepair {
		want = p.want
	}
	if !want.matches(seen.DetectedBlocks, seen.CorrectedBits, seen.CorrectedBlocks) {
		return fmt.Errorf("%s: replayed ECC %s reports %+v, injected %+v", p.name, kind, seen, want)
	}
	tr.replay("ecc", kind, parent, op, total)
	return nil
}

// stagedSave issues a save in its public stages. For a checkpoint:
// compress, frame (the header the first checkpoint.Save wrote, then
// the compressed field), stream-encode. For a file: stream-encode from
// the source file. The file it writes must equal the public call's
// byte for byte, which the caller checks through the stored size and
// the loads that follow.
func (p *protected) stagedSave(tr *tracer, m *allocMeter, a *arc.ARC) (arc.Choice, int64, time.Duration, error) {
	op := tr.newOp()
	var stream int
	var choice arc.Choice
	fail := func(err error) (arc.Choice, int64, time.Duration, error) { return arc.Choice{}, 0, 0, err }
	t0 := time.Now()
	if p.isCheckpoint() {
		root := tr.begin("checkpoint.save", opSave, 0, op)
		comp, err := pressio.New(p.compressor, p.bound)
		if err != nil {
			return fail(err)
		}
		layer := compressorLayer(p.compressor) + ".compress"
		var compressed []byte
		id := tr.begin(layer, opSave, root, op)
		m.measure(layer, p.input, func() { compressed, err = comp.Compress(p.field.Data, p.field.Dims) })
		tr.end(id)
		if err != nil {
			return fail(err)
		}
		header := p.plain[:len(p.plain)-p.compressed]
		payload := append(append(make([]byte, 0, len(header)+len(compressed)), header...), compressed...)
		stream, choice, err = p.streamEncode(tr, m, root, op, a, bytes.NewReader(payload), p.path)
		tr.end(root)
		if err != nil {
			return fail(err)
		}
	} else {
		root := tr.begin("arc.encode_file", opSave, 0, op)
		src, err := os.Open(p.src)
		if err != nil {
			return fail(err)
		}
		defer src.Close()
		in := &timedIO{f: src, tr: tr, name: "fs.read", kind: opSave, parent: root, op: op}
		stream, choice, err = p.streamEncode(tr, m, root, op, a, in, p.path)
		tr.end(root)
		if err != nil {
			return fail(err)
		}
	}
	own := time.Since(t0)
	if err := p.replayECC(tr, opSave, stream, op, p.path); err != nil {
		return fail(err)
	}
	fi, err := os.Stat(p.path)
	if err != nil {
		return fail(err)
	}
	return choice, fi.Size(), own, nil
}

// stagedLoad issues a load (kind load) or a repairing load (kind
// repair) in its public stages: stream-decode, then for a checkpoint
// decompress the field that follows the header.
func (p *protected) stagedLoad(tr *tracer, m *allocMeter, kind, path string) (arc.StreamReport, time.Duration, error) {
	op := tr.newOp()
	var stream int
	var rep arc.StreamReport
	t0 := time.Now()
	if p.isCheckpoint() {
		p.loaded, p.loadedDims = nil, nil
		root := tr.begin("checkpoint.load", kind, 0, op)
		var payload bytes.Buffer
		var err error
		stream, rep, err = p.streamDecode(tr, m, kind, root, op, path, &payload)
		if err != nil {
			return rep, 0, err
		}
		comp, err := pressio.New(p.compressor, p.bound)
		if err != nil {
			return rep, 0, err
		}
		if payload.Len() < p.compressed {
			return rep, 0, fmt.Errorf("%s: decoded %d bytes, fewer than the compressed field's %d", p.name, payload.Len(), p.compressed)
		}
		layer := compressorLayer(p.compressor) + ".decompress"
		id := tr.begin(layer, kind, root, op)
		m.measure(layer, p.input, func() {
			p.loaded, p.loadedDims, err = comp.Decompress(payload.Bytes()[payload.Len()-p.compressed:])
		})
		tr.end(id)
		tr.end(root)
		if err != nil {
			return rep, 0, err
		}
	} else {
		root := tr.begin("arc.decode_file", kind, 0, op)
		dst, err := os.Create(p.out)
		if err != nil {
			return rep, 0, err
		}
		out := &timedIO{f: dst, tr: tr, name: "fs.write", kind: kind, parent: root, op: op}
		stream, rep, err = p.streamDecode(tr, m, kind, root, op, path, out)
		out.parent = root
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		tr.end(root)
		if err != nil {
			return rep, 0, err
		}
	}
	own := time.Since(t0)
	return rep, own, p.replayECC(tr, kind, stream, op, path)
}
