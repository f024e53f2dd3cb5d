package main

// Inputs and set-up: everything a workload measures is generated here
// from the seed and nothing else.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	arc "repro"
	"repro/checkpoint"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ecc"
	"repro/internal/metrics"
	"repro/internal/pressio"
	"repro/internal/service"
)

// boundShare is the absolute error bound of SZ-ABS and ZFP-ACC as a
// share of each field's value range.
const boundShare = 1e-3

// protected is one ARC-protected file of a workload together with its
// ground truth. The two kinds (a checkpointed field, a file of bytes)
// differ in how they are saved, loaded and verified, and share the
// rest.
type protected struct {
	name  string
	input int64 // bytes a user hands in: field bytes, or file bytes

	// A checkpoint item has a field; a file item has source bytes.
	field      *datasets.Field
	compressor string
	bound      float64
	src        string // path of the plain source file (file items)

	res   arc.Resiliency
	mem   float64
	chunk int // StreamOptions.ChunkSize (0 = the 4 MiB default)

	path   string // the protected file, written by every save
	faulty string // a copy of path carrying the workload's fault pattern
	out    string // where file items are decoded to
	want   repairs
	config string // the ECC configuration every save must choose
	// served is the file the server exposes for this item, by name
	// under its root: the clean file, or with atRest the faulty copy.
	served string
	atRest bool

	// plain is what the ARC stream protects: for a file item the source
	// bytes, for a checkpoint its header and compressed field. stored
	// is the protected file's size and compressed the checkpoint's
	// compressed field size; each repeats exactly on every save.
	plain      []byte
	stored     int64
	compressed int

	// loaded is the field the latest load returned (checkpoint items).
	loaded     []float64
	loadedDims []int
}

func (p *protected) isCheckpoint() bool { return p.field != nil }

// save protects the item's input into path: the timed part of
// save_mb_s. opts apply to file items; a checkpoint's stream options
// are checkpoint.Save's own.
func (p *protected) save(a *arc.ARC, path string, opts arc.StreamOptions) (arc.Choice, int64, error) {
	if !p.isCheckpoint() {
		opts.ChunkSize = p.chunk
		return a.EncodeFileWith(p.src, path, p.mem, arc.AnyBW, p.res, opts)
	}
	f, err := os.Create(path)
	if err != nil {
		return arc.Choice{}, 0, err
	}
	info, err := checkpoint.Save(f, a, p.field.Data, p.field.Dims, checkpoint.Options{
		Compressor: p.compressor, Bound: p.bound, Resiliency: p.res, Mem: p.mem,
	})
	if err != nil {
		_ = f.Close() // error path: the save error wins
		return arc.Choice{}, 0, err
	}
	if err := f.Close(); err != nil {
		return arc.Choice{}, 0, err
	}
	p.compressed = info.CompressedBytes
	fi, err := os.Stat(path)
	if err != nil {
		return arc.Choice{}, 0, err
	}
	return info.Choice, fi.Size(), nil
}

// load recovers the item from the protected file at path: the timed
// part of load_mb_s and repair_mb_s. The output is kept for verify.
func (p *protected) load(path string, workers int, opts arc.StreamOptions) (arc.StreamReport, error) {
	if !p.isCheckpoint() {
		return arc.DecodeFileWith(path, p.out, workers, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return arc.StreamReport{}, err
	}
	defer f.Close()
	p.loaded, p.loadedDims = nil, nil
	data, dims, info, err := checkpoint.Load(f, workers)
	if err != nil {
		return arc.StreamReport{}, err
	}
	p.loaded, p.loadedDims = data, dims
	return info.Repairs, nil
}

// verify checks the latest load's output against ground truth: a
// checkpointed field must respect its error bound everywhere, decoded
// bytes must equal the source.
func (p *protected) verify() error {
	if !p.isCheckpoint() {
		got, err := os.ReadFile(p.out)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, p.plain) {
			return fmt.Errorf("%s: decoded bytes differ from the source", p.name)
		}
		return nil
	}
	if len(p.loaded) != len(p.field.Data) || !slices.Equal(p.loadedDims, p.field.Dims) {
		return fmt.Errorf("%s: loaded %d values %v, want %d %v", p.name, len(p.loaded), p.loadedDims, len(p.field.Data), p.field.Dims)
	}
	if i := metrics.VerifyBound(p.field.Data, p.loaded, metrics.BoundAbs, p.bound); i >= 0 {
		return fmt.Errorf("%s: value %d is %g, original %g, bound %g", p.name, i, p.loaded[i], p.field.Data[i], p.bound)
	}
	return nil
}

// env is a workload after set-up: trained engine, protected files on
// disk with their faulty copies, and a running server over them.
type env struct {
	workload string
	sc       scale
	seed     int64
	dir      string
	nproc    int

	a     *arc.ARC
	items []*protected

	srv   *service.Server
	addr  string
	codec core.Config // ENCODE/DECODE configuration of the service phase
	pool  []codecSample
	// totals is the clients' ground truth over every request this
	// server has been sent.
	totals svcTotals

	setupS     float64 // setup_s
	generateS  float64 // datasets.generate_s
	initTrainS float64 // core.init_train_s
	inputBytes int64
}

// storedBytes is the size of all protected files together.
func (e *env) storedBytes() (n int64) {
	for _, p := range e.items {
		n += p.stored
	}
	return n
}

// codecSample is one ENCODE/DECODE payload with the container the
// server must answer an ENCODE with (encoding is deterministic).
type codecSample struct {
	plain     []byte
	container []byte
}

func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx) // a drain timeout severs the connections; nothing to add
		cancel()
		e.srv = nil
	}
	if e.a != nil {
		_ = e.a.Close() // CacheDir "-" has nothing to save
		e.a = nil
	}
}

// fields generates the three study fields at the scale's grid sizes.
// The generators draw a field's large-scale structure and its value
// range from their seed, and with them how well it compresses and how
// fast; left to the run's seed that would make one workload a
// different amount of work on every seed. So the structure is fixed
// and the seed moves the origin: each field is rotated cyclically
// along every axis by a seeded offset. Every seed then sees different
// bytes with the same values, range and statistics.
func fields(sc scale, seed int64) []*datasets.Field {
	fs := []*datasets.Field{
		datasets.CESM(sc.cesm[0], sc.cesm[1], 1),
		datasets.Isabel(sc.isabel[0], sc.isabel[1], sc.isabel[2], 2),
		datasets.NYX(sc.nyx[0], sc.nyx[1], sc.nyx[2], 3),
	}
	rng := rand.New(rand.NewSource(seed))
	for _, f := range fs {
		f.Data = rotate(f.Data, f.Dims, rng)
	}
	return fs
}

// rotate returns data (row-major, 2 or 3 dims) shifted cyclically
// along each axis by an offset drawn from rng.
func rotate(data []float64, dims []int, rng *rand.Rand) []float64 {
	d := [3]int{1, dims[len(dims)-2], dims[len(dims)-1]} // planes, rows, columns
	if len(dims) == 3 {
		d[0] = dims[0]
	}
	off := [3]int{rng.Intn(d[0]), rng.Intn(d[1]), rng.Intn(d[2])}
	out := make([]float64, len(data))
	for z := 0; z < d[0]; z++ {
		for y := 0; y < d[1]; y++ {
			src := data[(((z+off[0])%d[0])*d[1]+(y+off[1])%d[1])*d[2]:][:d[2]]
			dst := out[(z*d[1]+y)*d[2]:][:d[2]]
			n := copy(dst, src[off[2]:])
			copy(dst[n:], src[:off[2]])
		}
	}
	return out
}

func absBound(f *datasets.Field) float64 {
	lo, hi := metrics.Range(f.Data)
	return boundShare * (hi - lo)
}

// corpus compresses each field with SZ-ABS, ZFP-ACC and ZFP-Rate at
// the scale's rates and concatenates the streams: real compressor
// output, every byte from a distinct (field, configuration) pair.
func corpus(sc scale, fs []*datasets.Field) ([]byte, error) {
	var out []byte
	for _, f := range fs {
		type cfg struct {
			name  string
			param float64
		}
		cfgs := []cfg{{"SZ-ABS", absBound(f)}, {"ZFP-ACC", absBound(f)}}
		for _, r := range sc.rates {
			cfgs = append(cfgs, cfg{"ZFP-Rate", r})
		}
		for _, c := range cfgs {
			comp, err := pressio.New(c.name, c.param)
			if err != nil {
				return nil, err
			}
			buf, err := comp.Compress(f.Data, f.Dims)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", f.Name, c.name, err)
			}
			out = append(out, buf...)
		}
	}
	return out, nil
}

// setup builds a workload from its seed: fields, corpus, a cold
// arc.Init, the protected files with their faulty copies, and the
// server. Its wall time is setup_s. It is not calibrated like the
// timed phases: its steps last up to four seconds, a host probe before
// and after says little about that long, and between ten runs the wall
// time spread less (7-13 %) than the same time scaled by the probes
// between its steps (15-26 %).
func setup(workload string, sc scale, seed int64, dir string) (*env, error) {
	e := &env{workload: workload, sc: sc, seed: seed, dir: dir, nproc: runtime.GOMAXPROCS(0)}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	start := time.Now()
	fs := fields(sc, seed)
	e.generateS = time.Since(start).Seconds()

	secded := arc.WithErrorsPerMB(1)
	e.codec = core.Config{Method: ecc.MethodSECDED, Param: 64}
	switch workload {
	case "ckpt":
		for _, f := range fs {
			for _, comp := range []string{"SZ-ABS", "ZFP-ACC"} {
				e.items = append(e.items, &protected{
					name: f.Name + "." + comp, input: int64(f.SizeBytes()),
					field: f, compressor: comp, bound: absBound(f),
					res: secded, mem: arc.AnyMem, config: "secded64",
				})
			}
		}
	case "protect-secded", "protect-rs", "service":
		data, err := corpus(sc, fs)
		if err != nil {
			return nil, err
		}
		proto := protected{res: secded, mem: arc.AnyMem, config: "secded64"}
		parts := [][]byte{data}
		switch workload {
		case "protect-rs":
			proto.res, proto.mem, proto.config = arc.WithMethods(arc.ReedSolomon), 0.1, "rs-m15"
			e.codec = core.Config{Method: ecc.MethodReedSolomon, Param: 15}
		case "service":
			size := min(sc.archiveBytes, len(data)/sc.archives)
			parts = parts[:0]
			for i := 0; i < sc.archives; i++ {
				parts = append(parts, data[i*size:(i+1)*size])
			}
			proto.chunk = sc.archiveChunk
		}
		for i, part := range parts {
			p := proto
			p.name = fmt.Sprintf("corpus%d", i)
			p.plain, p.input = part, int64(len(part))
			p.src = filepath.Join(dir, p.name+".bin")
			if err := os.WriteFile(p.src, part, 0o644); err != nil {
				return nil, err
			}
			e.items = append(e.items, &p)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}

	t0 := time.Now()
	a, err := arc.InitWithOptions(e.nproc, arc.Options{CacheDir: "-", TrainSampleBytes: sc.trainSample})
	if err != nil {
		return nil, err
	}
	e.a = a
	e.initTrainS = time.Since(t0).Seconds()

	rng := rand.New(rand.NewSource(seed ^ 0x6661756c74)) // "fault"
	for i, p := range e.items {
		p.path = filepath.Join(dir, p.name+".arc")
		p.faulty = filepath.Join(dir, p.name+".faulty.arc")
		p.out = filepath.Join(dir, p.name+".out")
		e.inputBytes += p.input
		choice, stored, err := p.save(a, p.path, arc.StreamOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: first save: %w", p.name, err)
		}
		p.stored = stored
		if err := p.checkSave(choice, stored); err != nil {
			return nil, err
		}
		if err := e.injectFaults(p, rng); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		p.served = filepath.Base(p.path)
		if workload == "service" && i == 0 {
			p.served, p.atRest = filepath.Base(p.faulty), true
		}
	}

	if err := e.buildPool(rng); err != nil {
		return nil, err
	}
	// The service workload puts the cache under pressure; the others
	// give it room for every decoded chunk in any one shard, so their
	// short service phase measures warm hits on every seed.
	cfg := service.Config{Root: dir, CacheBytes: 64 * e.inputBytes}
	if workload == "service" {
		cfg.CacheBytes = sc.cacheBytes
	}
	e.srv = service.New(cfg)
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = addr.String()
	e.setupS = time.Since(start).Seconds()
	ok = true
	return e, nil
}

// injectFaults writes p.faulty: a copy of the protected file carrying
// the workload's correctable fault pattern. For a checkpoint it also
// recovers p.plain, the bytes the stream protects, from the clean file.
func (e *env) injectFaults(p *protected, rng *rand.Rand) error {
	stream, err := os.ReadFile(p.path)
	if err != nil {
		return err
	}
	if p.isCheckpoint() {
		p.plain, err = io.ReadAll(arc.NewReader(bytes.NewReader(stream), e.nproc))
		if err != nil {
			return fmt.Errorf("clean decode: %w", err)
		}
	}
	chunks, err := chunksOf(stream)
	if err != nil {
		return err
	}
	perMB := int(math.Ceil(float64(len(stream)) / 1e6))
	switch e.workload {
	case "ckpt", "service":
		// 1 flip/MB in distinct codewords (the paper's section 6.3).
		p.want, err = sparseFlips(chunks, perMB, rng)
	case "protect-secded":
		n := int(e.sc.flipsPerMiB * float64(len(p.plain)) / (1 << 20))
		p.want, err = sparseFlips(chunks, max(n, 1), rng)
		for _, c := range chunks {
			c.damageHeaderReplica(rng)
		}
	case "protect-rs":
		p.want, err = stripeBursts(chunks, 7, rng)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(p.faulty, stream, 0o644)
}

// buildPool cuts the service phase's ENCODE/DECODE payloads from the
// workload's protected bytes and encodes each locally, so a response
// can be checked with one comparison.
func (e *env) buildPool(rng *rand.Rand) error {
	for i := 0; i < e.sc.pool; i++ {
		src := e.items[rng.Intn(len(e.items))].plain
		n := min(e.sc.payload, len(src))
		at := rng.Intn(len(src) - n + 1)
		plain := src[at : at+n]
		res, err := arc.EncodeContainer(plain, arc.Choice{Config: e.codec, Threads: 1})
		if err != nil {
			return err
		}
		e.pool = append(e.pool, codecSample{plain: plain, container: res.Encoded})
	}
	return nil
}
