package main

// The service phase: closed-loop clients against the in-process arcd
// that set-up started over the workload's protected files. Callers of
// an archive service wait for each reply, so the loop is closed: one
// request outstanding per connection, at most nproc connections.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/service"
)

// The seeded request mix.
const (
	shareRead       = 0.70 // READ_RANGE, Zipf over archives and chunks
	shareEncode     = 0.15 // ENCODE of one pool payload
	shareDecode     = 0.10 // DECODE, half clean and half with 1-3 correctable faults
	shareOverBudget = 0.05 // DECODE beyond the code's budget: must answer uncorrectable
	zipfS           = 1.2
	maxConns        = 2
)

const (
	reqRead   = "service.read_range"
	reqEncode = "service.encode"
	reqDecode = "service.decode"
)

// svcTotals is the client side's ground truth over every request sent
// to one server, against which the server's own counters must agree
// exactly.
type svcTotals struct {
	Requests      int64 `json:"requests"`
	CorrectedBits int64 `json:"corrected_bits"`
	Blocks        int64 `json:"corrected_blocks"`
	Repaired      int64 `json:"repaired_requests"`
	Uncorrectable int64 `json:"uncorrectable"`
	InjectedBits  int64 `json:"injected_bits"`   // into DECODE requests, within budget
	InjectedBlock int64 `json:"injected_blocks"` // into DECODE requests, within budget
}

// svcResult is the service phase as its clients saw it in one mode:
// the measured requests, their rate per calibrated second summed over
// the connections, and their calibrated latencies by kind; rawRate and
// rawLat are the same in wall time.
type svcResult struct {
	measured      int
	rate, rawRate float64
	lat, rawLat   map[string][]float64 // microseconds
}

type conn struct {
	e      *env
	c      *service.Client
	rng    *rand.Rand
	zItem  *rand.Zipf
	zChunk []*rand.Zipf
	tr     *tracer

	tally  tally
	totals svcTotals
	// win holds the measured blocks of requests, apart for slices run
	// without spans (index 0) and with them (index 1).
	win [2][]block
}

// block is one connection's requests between two host probes: each
// one's kind and latency, and the time they took together.
type block struct {
	reqs        []latency
	secs        float64
	first, last int // the probes before and after
}

type latency struct {
	kind string
	us   float64
}

// The measured requests are issued in blocks, each between two host
// probes that calibrate it: blockLen long, or blockReqs requests per
// connection where a request count and no time budget governs.
const (
	blockLen  = 50 * time.Millisecond
	blockReqs = 50
)

// chunkBytes is the plaintext size of the item's chunks.
func (p *protected) chunkBytes() int {
	if p.chunk > 0 {
		return p.chunk
	}
	return core.DefaultChunkSize
}

func (p *protected) chunks() int {
	return (len(p.plain) + p.chunkBytes() - 1) / p.chunkBytes()
}

func (e *env) dial(ctx context.Context, id int, tr *tracer) (*conn, error) {
	c, err := service.Dial(ctx, e.addr, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed*1000003 + int64(id)))
	cn := &conn{e: e, c: c, rng: rng, tr: tr}
	cn.zItem = rand.NewZipf(rng, zipfS, 1, uint64(len(e.items)-1))
	for _, p := range e.items {
		cn.zChunk = append(cn.zChunk, rand.NewZipf(rng, zipfS, 1, uint64(p.chunks()-1)))
	}
	return cn, nil
}

// request issues one request of the seeded mix, checks the reply and
// returns its kind and client-observed latency.
func (cn *conn) request(ctx context.Context) (string, time.Duration) {
	e := cn.e
	r := cn.rng.Float64()
	cn.totals.Requests++
	cn.tally.Attempted++
	switch {
	case r < shareRead:
		i := int(cn.zItem.Uint64())
		p := e.items[i]
		cb := p.chunkBytes()
		ch := int(cn.zChunk[i].Uint64())
		first := ch*cb + cn.rng.Intn(min(cb, len(p.plain)-ch*cb))
		n := min(e.sc.readMin+cn.rng.Intn(e.sc.readMax-e.sc.readMin+1), len(p.plain)-first)
		span := cn.tr.begin(reqRead, "request", 0, cn.tr.newOp())
		t0 := time.Now()
		got, rep, err := cn.c.ReadRange(ctx, p.served, int64(first), int64(n))
		d := time.Since(t0)
		cn.tr.end(span)
		switch {
		case err != nil:
			cn.tally.fail(fmt.Errorf("READ_RANGE %s [%d,+%d): %w", p.name, first, n, err), false)
		case !bytes.Equal(got, p.plain[first:first+n]):
			cn.tally.fail(fmt.Errorf("READ_RANGE %s [%d,+%d): wrong bytes", p.name, first, n), true)
		case !p.atRest && rep != (service.Report{}):
			cn.tally.fail(fmt.Errorf("READ_RANGE %s: repairs %+v reported on a clean archive", p.name, rep), false)
		case rep.CorrectedBits > p.want.Bits || rep.CorrectedBlocks > p.want.Blocks:
			cn.tally.fail(fmt.Errorf("READ_RANGE %s: repairs %+v exceed the %+v at rest", p.name, rep, p.want), false)
		default:
			cn.totals.observe(rep)
		}
		return reqRead, d

	case r < shareRead+shareEncode:
		s := e.pool[cn.rng.Intn(len(e.pool))]
		span := cn.tr.begin(reqEncode, "request", 0, cn.tr.newOp())
		t0 := time.Now()
		got, err := cn.c.Encode(ctx, e.codec.Method, e.codec.Param, s.plain)
		d := time.Since(t0)
		cn.tr.end(span)
		switch {
		case err != nil:
			cn.tally.fail(fmt.Errorf("ENCODE: %w", err), false)
		case !bytes.Equal(got, s.container):
			cn.tally.fail(fmt.Errorf("ENCODE: container differs from the local encoding"), true)
		}
		return reqEncode, d

	default:
		s := e.pool[cn.rng.Intn(len(e.pool))]
		damaged := append([]byte(nil), s.container...)
		chunks, err := chunksOf(damaged)
		if err != nil || len(chunks) != 1 {
			cn.tally.fail(fmt.Errorf("DECODE: pool container does not parse: %v", err), false)
			return reqDecode, 0
		}
		var want repairs
		over := r >= 1-shareOverBudget
		switch {
		case over:
			overBudget(chunks[0], cn.rng)
		case cn.rng.Intn(2) == 0:
			want = withinBudget(chunks[0], cn.rng)
			cn.totals.InjectedBits += int64(want.Bits)
			cn.totals.InjectedBlock += int64(want.Blocks)
		}
		span := cn.tr.begin(reqDecode, "request", 0, cn.tr.newOp())
		t0 := time.Now()
		got, rep, err := cn.c.Decode(ctx, damaged)
		d := time.Since(t0)
		cn.tr.end(span)
		switch {
		case over && service.IsUncorrectable(err):
			cn.totals.Uncorrectable++
		case over && err == nil:
			cn.tally.fail(fmt.Errorf("DECODE: over-budget damage answered OK"), !bytes.Equal(got, s.plain))
		case err != nil:
			cn.tally.fail(fmt.Errorf("DECODE: %w", err), false)
		case !bytes.Equal(got, s.plain):
			cn.tally.fail(fmt.Errorf("DECODE: wrong bytes"), true)
		case !want.matches(rep.DetectedBlocks, rep.CorrectedBits, rep.CorrectedBlocks):
			cn.tally.fail(fmt.Errorf("DECODE: repair report %+v, injected %+v", rep, want), false)
		default:
			cn.totals.observe(rep)
		}
		return reqDecode, d
	}
}

// observe adds an OK reply's repair report to the totals.
func (t *svcTotals) observe(rep service.Report) {
	t.CorrectedBits += int64(rep.CorrectedBits)
	t.Blocks += int64(rep.CorrectedBlocks)
	if rep.CorrectedBits > 0 || rep.CorrectedBlocks > 0 {
		t.Repaired++
	}
}

// drive issues requests until the deadline and for at least minReqs
// requests; it returns each one's kind and latency, and the time they
// took together.
func (cn *conn) drive(ctx context.Context, deadline time.Time, minReqs int) block {
	reqs := make([]latency, 0, 2*blockReqs)
	start := time.Now()
	for i := 0; i < minReqs || time.Now().Before(deadline); i++ {
		kind, d := cn.request(ctx)
		reqs = append(reqs, latency{kind, float64(d.Nanoseconds()) / 1e3})
	}
	return block{reqs: reqs, secs: time.Since(start).Seconds()}
}

// warmCache reads one byte of every chunk of every served file, so
// that the measured window starts from a populated cache on every
// seed.
func (e *env) warmCache(ctx context.Context, t *tally, totals *svcTotals) error {
	c, err := service.Dial(ctx, e.addr, 0)
	if err != nil {
		return err
	}
	defer c.Close()
	for _, p := range e.items {
		for ch := 0; ch < p.chunks(); ch++ {
			first := ch * p.chunkBytes()
			got, rep, err := c.ReadRange(ctx, p.served, int64(first), 1)
			totals.Requests++
			t.Attempted++
			if err != nil || len(got) != 1 || got[0] != p.plain[first] {
				t.fail(fmt.Errorf("warm READ_RANGE %s chunk %d: %v", p.name, ch, err), err == nil)
				continue
			}
			totals.observe(rep)
		}
	}
	return nil
}

// clients is the service phase in progress: connections that stay
// open while the run alternates between file slices and service
// slices, so that a stall of a few seconds on a shared host costs
// every metric a few samples and none of them its whole sample.
type clients struct {
	e     *env
	conns []*conn
	// mallocs and requests are summed over the slices, for
	// service.mallocs_per_req (client and server share the process),
	// and spent is the slices' wall time.
	mallocs  uint64
	requests int64
	spent    time.Duration
}

// openClients populates the server's cache, dials the connections and
// sends each one's unmeasured warm-up requests.
func (e *env) openClients(t *tally) (*clients, error) {
	ctx := context.Background()
	if err := e.warmCache(ctx, t, &e.totals); err != nil {
		return nil, err
	}
	cl := &clients{e: e}
	for i := 0; i < min(maxConns, e.nproc); i++ {
		cn, err := e.dial(ctx, i, nil)
		if err != nil {
			cl.closeConns()
			return nil, err
		}
		cl.conns = append(cl.conns, cn)
	}
	cl.each(func(cn *conn) { cn.drive(ctx, time.Now(), e.sc.warmReqs) })
	return cl, nil
}

func (cl *clients) closeConns() {
	for _, cn := range cl.conns {
		_ = cn.c.Close() // nothing in flight: every call has returned
	}
}

// each runs f on every connection at once (there are at most
// maxConns) and waits for all. It does so on one processor. Client and
// server share this process, and on two processors every request
// hands the work from one virtual CPU to the other and back; each
// hand-over wakes an idle virtual CPU through the hypervisor, at a
// cost that doubles with the neighbours' load (one connection's
// READ_RANGE median: 127 us on two processors, 53 us on one). On one
// processor a closed loop never idles, so the phase measures ARC's
// code and the kernel's loopback path and not the host's wake-ups.
func (cl *clients) each(f func(cn *conn)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var wg sync.WaitGroup
	for i := 0; i < len(cl.conns); i++ {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			f(cn)
		}(cl.conns[i])
	}
	wg.Wait()
}

// slice runs the closed loops for d (and at least minReqs requests per
// connection) in calibrated blocks, recording a span per request when
// tr is set.
func (cl *clients) slice(d time.Duration, minReqs int, tr *tracer) {
	var sent int64
	for _, cn := range cl.conns {
		sent += cn.totals.Requests
		cn.tr = tr
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx := context.Background()
	start := time.Now()
	defer func() { cl.spent += time.Since(start) }()
	deadline := start.Add(d)
	for left := minReqs; left > 0 || time.Now().Before(deadline); {
		n := min(left, blockReqs)
		left -= n
		end := time.Now().Add(blockLen)
		if end.After(deadline) {
			end = deadline
		}
		mode, first := btoi(tr != nil), hostProbe()
		cl.each(func(cn *conn) { cn.win[mode] = append(cn.win[mode], cn.drive(ctx, end, n)) })
		last := hostProbe()
		for _, cn := range cl.conns {
			b := &cn.win[mode][len(cn.win[mode])-1]
			b.first, b.last = first, last
		}
	}
	runtime.ReadMemStats(&after)
	cl.mallocs += after.Mallocs - before.Mallocs
	cl.requests -= sent
	for _, cn := range cl.conns {
		cl.requests += cn.totals.Requests
	}
}

// result gathers what the clients measured in one mode (0 without
// spans, 1 with), each block calibrated by the host probes around it.
func (cl *clients) result(mode int) svcResult {
	res := svcResult{lat: map[string][]float64{}, rawLat: map[string][]float64{}}
	for _, cn := range cl.conns {
		var secs, rawSecs float64
		var n int
		for _, b := range cn.win[mode] {
			scale := probeRef / hostAround(b.first, b.last)
			for _, l := range b.reqs {
				res.lat[l.kind] = append(res.lat[l.kind], l.us*scale)
				res.rawLat[l.kind] = append(res.rawLat[l.kind], l.us)
			}
			n += len(b.reqs)
			secs += b.secs * scale
			rawSecs += b.secs
		}
		res.measured += n
		if secs > 0 {
			res.rate += float64(n) / secs
			res.rawRate += float64(n) / rawSecs
		}
	}
	return res
}

// close ends the phase: it adds the clients' tallies and ground truth
// to the run's and holds the server's counters to them.
func (cl *clients) close(t *tally) metrics.LiveSnapshot {
	e := cl.e
	cl.closeConns()
	for _, cn := range cl.conns {
		t.merge(cn.tally)
		e.totals.add(cn.totals)
	}
	// The server counts a request after writing its reply, so the last
	// replies may be read before they are counted: wait for the count.
	stats := e.srv.Stats()
	for wait := time.Now().Add(time.Second); stats.Requests < e.totals.Requests && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
		stats = e.srv.Stats()
	}
	e.checkServerCounters(stats, t)
	return stats
}

func (a *svcTotals) add(b svcTotals) {
	a.Requests += b.Requests
	a.CorrectedBits += b.CorrectedBits
	a.Blocks += b.Blocks
	a.Repaired += b.Repaired
	a.Uncorrectable += b.Uncorrectable
	a.InjectedBits += b.InjectedBits
	a.InjectedBlock += b.InjectedBlock
}

// checkServerCounters compares the STATS counters with what the
// clients sent and saw; each comparison is one attempted operation.
func (e *env) checkServerCounters(s metrics.LiveSnapshot, t *tally) {
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"requests", s.Requests, e.totals.Requests},
		{"corrected_bits", s.CorrectedBits, e.totals.CorrectedBits},
		{"corrected_blocks", s.CorrectedBlocks, e.totals.Blocks},
		{"repaired_requests", s.RepairedRequests, e.totals.Repaired},
		{"uncorrectable", s.Uncorrectable, e.totals.Uncorrectable},
	} {
		t.Attempted++
		if c.got != c.want {
			t.fail(fmt.Errorf("STATS %s = %d, the clients count %d", c.name, c.got, c.want), false)
		}
	}
}
