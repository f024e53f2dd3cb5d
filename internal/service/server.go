package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// Config parameterizes a Server. The zero value is usable: every
// field has a conservative default.
type Config struct {
	// Workers is the shared worker budget: at most this many requests
	// are encoded/decoded at once across all connections (<= 0 means
	// GOMAXPROCS). Per-connection pipelines borrow slots from this
	// budget, so one greedy client cannot monopolize the CPUs.
	Workers int
	// Window bounds the in-flight requests per connection (<= 0 means
	// 8). A full window stops the connection's frame reader, which
	// backpressures the client through TCP.
	Window int
	// MaxPayload bounds a request frame's payload (<= 0 means
	// DefaultMaxPayload). Oversized frames get StatusOversized and
	// the connection closes.
	MaxPayload int
	// Threads is the per-request codec parallelism (<= 0 means 1 —
	// service concurrency comes from many requests, not from
	// splitting one).
	Threads int
	// Default is the encode configuration used when a request carries
	// method 0. The zero value selects SEC-DED over 64-bit blocks.
	Default core.Config
	// Root, when non-empty, is the directory whose ARC archives
	// READ_RANGE requests may address by bare file name. Empty
	// disables the operation.
	Root string
	// CacheBytes is the decoded-chunk cache budget shared by every
	// archive opened for READ_RANGE (<= 0 selects the cache default).
	CacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = DefaultMaxPayload
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Default.Method == 0 {
		c.Default = core.Config{Method: ecc.MethodSECDED, Param: 64}
	}
	return c
}

// perConnWorkers bounds one connection's pipeline workers. The shared
// budget is the real concurrency cap; this only bounds the goroutines
// parked per connection.
func (c Config) perConnWorkers() int {
	return min(4, c.Workers)
}

// Server is the arcd archive service: a TCP listener whose
// connections speak the framed protocol of this package. Each
// connection runs a bounded, order-preserving request pipeline
// (parallel.Pipe) whose workers draw from a server-wide budget;
// Shutdown drains in-flight requests before closing. Construct with
// New, start with Serve or Listen, observe with Stats.
type Server struct {
	cfg   Config
	stats *metrics.Live

	// budget holds the shared worker slots. Request processing —
	// never frame I/O — holds a slot, so a stalled client costs no
	// budget.
	budget chan struct{}
	// quit is closed exactly once, by Close or Shutdown: it stops the
	// accept loop and tells every connection to finish what it has
	// read and stop reading more.
	quit     chan struct{}
	quitOnce sync.Once

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup // accept loop + one handler per connection

	// READ_RANGE state (cache is nil when no Root is configured).
	// Archives open lazily on first request and stay open — with their
	// decoded chunks cached under a per-archive key — until the server
	// stops.
	cache    *cache.Cache
	archMu   sync.Mutex
	archives map[string]*archive
	archSeq  atomic.Uint64 // cache-key allocator
	archOnce sync.Once     // guards closeArchives
}

// archive is one lazily opened ARC file served by READ_RANGE.
type archive struct {
	f  *os.File
	rr *core.RangeReader
}

// New creates an unstarted server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		stats:  metrics.NewLive(OpNames()...),
		budget: make(chan struct{}, cfg.Workers),
		quit:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	if cfg.Root != "" {
		s.cache = cache.New(cfg.CacheBytes)
		s.archives = make(map[string]*archive)
		s.stats.SetCacheSource(s.cache.Stats)
	}
	return s
}

// ErrServerClosed reports Serve/Listen on a server that was shut down.
var ErrServerClosed = errors.New("service: server closed")

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in the
// background. The bound address is returned so callers can dial
// ephemeral ports.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(ln); err != nil {
		_ = ln.Close() // the Serve error is the one worth reporting
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve adopts ln and starts the accept loop in the background. It
// returns immediately; use Shutdown or Close to stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return errors.New("service: Serve called twice")
	}
	select {
	case <-s.quit:
		return ErrServerClosed
	default:
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the listener's address (nil before Serve/Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stats snapshots the live counters.
func (s *Server) Stats() metrics.LiveSnapshot { return s.stats.Snapshot() }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (EMFILE and friends): back off
			// briefly instead of spinning.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		select {
		case <-s.quit:
			// Shutdown won the race: it will not see this connection,
			// so refuse it here.
			s.mu.Unlock()
			_ = conn.Close() // refused during shutdown; nothing to report
			continue
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.ConnOpened()
		go s.handleConn(conn)
	}
}

// frameBuf is a pooled payload buffer. Pooling the wrapper, not the
// slice, keeps pool round trips free of boxing allocations; a buffer
// whose storage an operation replaced (because it needed more) adopts
// the new storage, so the pool's buffers grow to the sizes in use.
type frameBuf struct{ b []byte }

// maxPooledBuf bounds the storage the pool keeps: one default stream
// chunk. A larger buffer — a 32 MiB frame, say — is dropped after use
// rather than pinned for the next request.
const maxPooledBuf = core.DefaultChunkSize

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// getBuf returns a pooled buffer (contents and length unspecified).
func getBuf() *frameBuf { return framePool.Get().(*frameBuf) }

// putBuf returns fb to the pool and reports whether the pool kept it:
// storage above maxPooledBuf is dropped. nil is a no-op.
func putBuf(fb *frameBuf) bool {
	if fb == nil || cap(fb.b) > maxPooledBuf {
		return false
	}
	framePool.Put(fb)
	return true
}

// request is one framed request in flight through a connection's
// pipeline. buf holds payload's storage; it travels on to the response
// and back to the pool through the writer. oversized marks a frame
// refused by the reader before its payload was consumed; it flows
// through the pipeline so the refusal reaches the client in submission
// order.
type request struct {
	op        Op
	payload   []byte
	buf       *frameBuf
	oversized bool
	start     time.Time
}

// response is the processed result, ready to frame: the wire payload
// is head (the repair report, or nothing) followed by payload, written
// without joining them.
//
// Ownership: bufs holds the request's buffer and every pooled buffer
// the response was built in. Only the writer recycles them, after the
// frame is on the socket — payload may alias any of them, so no
// earlier point is safe.
type response struct {
	op      Op
	status  Status
	head    [reportLen]byte
	headLen int // 0, or reportLen when head carries a report
	payload []byte
	bufs    [3]*frameBuf
	in      int // request payload bytes, for the byte counters
	start   time.Time
}

// setReport puts rep ahead of the payload.
func (r *response) setReport(rep Report) {
	AppendReport(r.head[:0], rep)
	r.headLen = reportLen
}

// fail makes r an error response carrying msg.
func (r *response) fail(status Status, msg string) {
	r.status, r.headLen, r.payload = status, 0, []byte(msg)
}

// output lends r a pooled buffer to build its result in; the writer
// recycles it with the rest of bufs.
func (r *response) output() *frameBuf {
	fb := getBuf()
	for i := range r.bufs {
		if r.bufs[i] == nil {
			r.bufs[i] = fb
			return fb
		}
	}
	panic("service: response holds too many buffers")
}

// recycle returns r's buffers to the pool.
func (r *response) recycle() {
	for i, fb := range r.bufs {
		putBuf(fb)
		r.bufs[i] = nil
	}
}

// handleConn runs one connection: this goroutine reads frames and
// submits them to a pipeline (the producer); a second goroutine
// writes responses in order (the consumer); pipeline workers process
// requests under the shared budget. The pipeline window bounds
// in-flight requests, so a slow or absent reader on the client side
// backpressures all the way to the socket.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.stats.ConnClosed()
	defer s.forgetConn(conn)

	pipe := parallel.NewPipe(s.cfg.perConnWorkers(), s.cfg.Window, func(req request) (response, error) {
		return s.process(req), nil
	})

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		if err := s.writeResponses(conn, pipe); err != nil {
			// The client is gone (or wedged a protocol violation):
			// abort so a producer blocked in Submit on a full window
			// unblocks — otherwise a half-closed client that keeps
			// sending would strand this connection forever.
			pipe.Abort()
		}
	}()

	s.readRequests(conn, pipe)

	// Producer side done: no more submissions. Close lets the writer
	// drain every in-flight request, then join the workers. If the
	// writer bailed early, drain its leftovers here so pipeline
	// workers never block on an unread result.
	pipe.Close()
	<-writerDone
	for {
		resp, ok, _ := pipe.Next()
		if !ok {
			break
		}
		resp.recycle()
	}
	pipe.Wait()
}

// forgetConn removes conn from the tracked set and closes it.
func (s *Server) forgetConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close() // best-effort: Close/Shutdown may have closed it already
}

// readRequests is the connection's producer loop: it reads frames
// until the client stops, a frame is unusable, or the server drains.
// Protocol errors that still leave the stream framed (oversized
// payload) produce an error response through the pipeline so ordering
// holds, then end the loop; unframeable input just ends the loop.
func (s *Server) readRequests(conn net.Conn, pipe *parallel.Pipe[request, response]) {
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		f, n, err := readFrameHeader(conn, s.cfg.MaxPayload)
		var fb *frameBuf
		if err == nil {
			// Each payload gets its own pooled buffer: it is handed to a
			// pipeline worker and must survive until the writer is done
			// with the response.
			fb = getBuf()
			if f.Payload, err = readPayload(conn, fb.b[:0], n); err == nil {
				fb.b = f.Payload
			}
		}
		if err != nil {
			putBuf(fb)
			switch {
			case errors.Is(err, io.EOF):
				// Clean disconnect between frames.
			case isDrainTimeout(err, s.quit):
				// Shutdown unblocked this read via the deadline; the
				// requests already submitted still drain.
			case errors.Is(err, ErrFrameTooLarge):
				// The op survives the refusal, so the client hears
				// which request was too big — in order, through the
				// pipeline like any other response.
				s.stats.FrameError()
				_ = pipe.Submit(request{op: f.Op, oversized: true, start: time.Now()}) // aborted pipe: teardown below
			default:
				// Malformed or truncated frame: the stream cannot be
				// re-synchronized, so drop the connection.
				s.stats.FrameError()
			}
			return
		}
		if f.Status != StatusRequest {
			putBuf(fb)
			s.stats.FrameError()
			return
		}
		if err := pipe.Submit(request{op: f.Op, payload: f.Payload, buf: fb, start: time.Now()}); err != nil {
			putBuf(fb) // never enqueued: nothing else holds it
			return
		}
	}
}

// isDrainTimeout reports whether err is the read-deadline timeout
// Shutdown injects to unblock producer loops, as opposed to a
// genuine network timeout.
func isDrainTimeout(err error, quit chan struct{}) bool {
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		return false
	}
	select {
	case <-quit:
		return true
	default:
		return false
	}
}

// writeResponses is the connection's consumer loop: it frames results
// in submission order, each as one writev of header+head and payload,
// and recycles each response's buffers once its frame is written. A
// write error (client gone) stops the loop; the handler then aborts
// and drains the pipeline.
func (s *Server) writeResponses(conn net.Conn, pipe *parallel.Pipe[request, response]) error {
	var fw frameWriter
	for {
		resp, ok, err := pipe.Next()
		if !ok || err != nil {
			return err
		}
		// Counted when the response is ready, before the client can see
		// it: a STATS request sent after a reply always includes it.
		failed := resp.status != StatusOK
		s.stats.RequestDone(int(resp.op)-1, failed, resp.in, resp.headLen+len(resp.payload), time.Since(resp.start))
		err = fw.write(conn, resp.op, resp.status, resp.head[:resp.headLen], resp.payload)
		resp.recycle()
		if err != nil {
			return err
		}
		if resp.status == StatusOversized {
			// The request that provoked this was never fully read;
			// the stream is done.
			return errors.New("service: oversized request")
		}
	}
}

// process executes one request under the shared worker budget. It
// never returns an error through the pipeline — failures become error
// responses so the connection (and request ordering) survive them.
func (s *Server) process(req request) response {
	// Acquire a budget slot. In-flight requests always finish —
	// shutdown drains, never cancels — so this send is bounded by the
	// other requests' processing time.
	s.budget <- struct{}{}
	defer func() { <-s.budget }()

	resp := response{op: req.op, in: len(req.payload), start: req.start, bufs: [3]*frameBuf{req.buf}}
	if req.oversized {
		resp.fail(StatusOversized, "request payload exceeds the server's frame budget")
		return resp
	}
	switch req.op {
	case OpEncode:
		s.processEncode(req, &resp)
	case OpDecode:
		s.processDecode(req, &resp, true)
	case OpVerify:
		s.processDecode(req, &resp, false)
	case OpRepair:
		s.processRepair(req, &resp)
	case OpStats:
		b, err := json.Marshal(s.stats.Snapshot())
		if err != nil {
			resp.fail(StatusInternal, err.Error())
			return resp
		}
		resp.status = StatusOK
		resp.payload = b
	case OpReadRange:
		s.processReadRange(req, &resp)
	}
	return resp
}

// validArchiveName rejects anything but a bare file name: READ_RANGE
// must never address outside the configured root.
func validArchiveName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\\x00") {
		return fmt.Errorf("service: invalid archive name %q", name)
	}
	return nil
}

// archive returns the open reader for name, opening it on first use.
// File and index I/O run outside archMu so a slow open never blocks
// requests for already-open archives; a racing duplicate open loses
// the insert and closes its handles.
func (s *Server) archive(name string) (*archive, error) {
	if err := validArchiveName(name); err != nil {
		return nil, err
	}
	s.archMu.Lock()
	a, ok := s.archives[name]
	s.archMu.Unlock()
	if ok {
		return a, nil
	}
	f, err := os.Open(filepath.Join(s.cfg.Root, name))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close() // error path: the stat error wins
		return nil, err
	}
	rr, err := core.OpenRangeReader(f, fi.Size(), core.RangeOptions{
		Workers:  s.cfg.Threads,
		Pipeline: s.cfg.perConnWorkers(),
		Cache:    s.cache,
		CacheKey: s.archSeq.Add(1),
	})
	if err != nil {
		_ = f.Close() // error path: the open error wins
		return nil, err
	}
	a = &archive{f: f, rr: rr}
	s.archMu.Lock()
	if ex, ok := s.archives[name]; ok {
		s.archMu.Unlock()
		_ = rr.Close() // lost the race; shared cache unaffected
		_ = f.Close()
		return ex, nil
	}
	s.archives[name] = a
	s.archMu.Unlock()
	return a, nil
}

// processReadRange decodes (and repairs) one byte range of a root
// archive. The response is a Report followed by the decoded bytes —
// fewer than requested when the range runs past the archive's end.
func (s *Server) processReadRange(req request, resp *response) {
	if s.cache == nil {
		resp.fail(StatusBadRequest, "server has no archive root configured")
		return
	}
	name, first, n, err := ParseReadRangeRequest(req.payload)
	if err != nil {
		resp.fail(StatusBadRequest, err.Error())
		return
	}
	if n > int64(s.cfg.MaxPayload-reportLen) {
		resp.fail(StatusBadRequest, fmt.Sprintf("range of %d bytes exceeds the response frame budget (%d)", n, s.cfg.MaxPayload-reportLen))
		return
	}
	a, err := s.archive(name)
	if err != nil {
		resp.fail(StatusBadRequest, err.Error())
		return
	}
	out := resp.output()
	out.b = ecc.GrowTo(out.b, int(n))
	got, rep, err := a.rr.ReadRange(out.b, first, n)
	if rep.Chunks > 0 || err != nil {
		s.stats.RepairObserved(rep.DetectedBlocks, rep.CorrectedBits, rep.CorrectedBlocks, rep.DigestMismatches,
			err != nil && !errors.Is(err, io.EOF))
	}
	if err != nil && !errors.Is(err, io.EOF) {
		resp.fail(decodeFailure(err))
		return
	}
	resp.status = StatusOK
	resp.setReport(Report{
		DetectedBlocks:  rep.DetectedBlocks,
		CorrectedBits:   rep.CorrectedBits,
		CorrectedBlocks: rep.CorrectedBlocks,
	})
	resp.payload = out.b[:got]
}

// chooseConfig resolves a request's method/param prefix, falling back
// to the server default for method 0.
func (s *Server) chooseConfig(method ecc.Method, param int) core.Config {
	if method == 0 {
		return s.cfg.Default
	}
	return core.Config{Method: method, Param: param}
}

func (s *Server) processEncode(req request, resp *response) {
	method, param, data, err := ParseEncodeRequest(req.payload)
	if err != nil {
		resp.fail(StatusBadRequest, err.Error())
		return
	}
	cfg := s.chooseConfig(method, param)
	out := resp.output()
	res, err := core.EncodeContainerWith(out.b, data, core.Choice{Config: cfg, Threads: s.cfg.Threads})
	if err != nil {
		resp.fail(StatusBadRequest, err.Error())
		return
	}
	out.b = res.Encoded
	resp.status = StatusOK
	resp.payload = res.Encoded
}

// decodeRequest decodes the request's container for DECODE, VERIFY and
// REPAIR into a pooled buffer: it records the repair outcome and fills
// resp with the failure, or with StatusOK and the 12-byte repair
// report. It returns nil when the request has failed.
func (s *Server) decodeRequest(req request, resp *response) *core.DecodeResult {
	// Decoded data is never longer than its container, so sizing the
	// buffer to the request means the decode lands in it. The result is
	// never adopted as the buffer's storage: a custom code may return
	// bytes aliasing the request's buffer instead.
	out := resp.output()
	out.b = ecc.GrowTo(out.b, len(req.payload))
	res, err := core.DecodeContainer(out.b, req.payload, s.cfg.Threads)
	if res != nil {
		rep, digest := res.Report, 0
		if errors.Is(err, core.ErrDigestMismatch) {
			digest = 1
		}
		s.stats.RepairObserved(rep.DetectedBlocks, rep.CorrectedBits, rep.CorrectedBlocks, digest, err != nil)
	}
	if err != nil {
		resp.fail(decodeFailure(err))
		return nil
	}
	resp.status = StatusOK
	resp.setReport(Report{
		DetectedBlocks:  res.Report.DetectedBlocks,
		CorrectedBits:   res.Report.CorrectedBits,
		CorrectedBlocks: res.Report.CorrectedBlocks,
	})
	return res
}

// processDecode handles OpDecode (withData true: report + original
// bytes) and OpVerify (report only).
func (s *Server) processDecode(req request, resp *response, withData bool) {
	if res := s.decodeRequest(req, resp); res != nil && withData {
		resp.payload = res.Data
	}
}

// processRepair decodes, then re-encodes the recovered bytes with the
// container's own configuration: the response is a fresh container
// with every correction folded in and full ECC budget restored.
func (s *Server) processRepair(req request, resp *response) {
	res := s.decodeRequest(req, resp)
	if res == nil {
		return
	}
	out := resp.output()
	enc, err := core.EncodeContainerWith(out.b, res.Data, core.Choice{Config: res.Config, Threads: s.cfg.Threads})
	if err != nil {
		resp.fail(StatusInternal, err.Error())
		return
	}
	out.b = enc.Encoded
	resp.payload = enc.Encoded
}

// decodeFailure maps a container decode error to a response status:
// detected-but-uncorrectable damage is reported as such (never as
// data), anything else as a bad request.
func decodeFailure(err error) (Status, string) {
	if errors.Is(err, ecc.ErrUncorrectable) {
		return StatusUncorrectable, err.Error()
	}
	return StatusBadRequest, err.Error()
}

// Shutdown gracefully stops the server: it closes the listener,
// unblocks every connection's reader, lets in-flight requests finish
// and their responses flush, then closes the connections. If ctx
// expires first, remaining connections are severed and Shutdown
// returns ctx.Err() once the handlers exit. Shutdown (and Close) are
// idempotent; later calls just wait for completion.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginQuit()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeArchives()
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		s.closeArchives()
		return ctx.Err()
	}
}

// closeArchives tears down READ_RANGE state after every handler has
// exited: no request can be mid-read, so readers and files close
// cleanly. Closing the shared cache also drops every decoded chunk.
func (s *Server) closeArchives() {
	s.archOnce.Do(func() {
		if s.cache == nil {
			return
		}
		s.archMu.Lock()
		defer s.archMu.Unlock()
		for name, a := range s.archives {
			_ = a.rr.Close() // RangeReader.Close never fails
			_ = a.f.Close()  // read-only handle; nothing to flush
			delete(s.archives, name)
		}
		_ = s.cache.Close() // Close on a cache never fails
	})
}

// Close stops the server immediately: listener and connections are
// closed without waiting for in-flight requests' responses to flush,
// though workers still run to completion. It never leaks the
// handlers: Close returns once every goroutine has exited.
func (s *Server) Close() error {
	s.beginQuit()
	s.closeConns()
	s.wg.Wait()
	s.closeArchives()
	return nil
}

// beginQuit closes quit once, closes the listener, and pokes every
// connection's blocked reader with an immediate read deadline so
// producer loops observe the drain.
func (s *Server) beginQuit() {
	s.quitOnce.Do(func() { close(s.quit) })
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close() // may already be closed; idempotent either way
	}
	now := time.Now()
	for conn := range s.conns {
		_ = conn.SetReadDeadline(now) // a closed conn means its reader already exited
	}
}

// closeConns severs every tracked connection.
func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		_ = conn.Close() // already-closed conns are fine
	}
}

// String identifies the server in logs.
func (s *Server) String() string {
	if a := s.Addr(); a != nil {
		return fmt.Sprintf("arcd(%s)", a)
	}
	return "arcd(unstarted)"
}
