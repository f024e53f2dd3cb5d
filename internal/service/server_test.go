package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/faultinject"
	"repro/internal/metrics"
)

const settleDeadline = 5 * time.Second

// goroutinesSettleTo polls until the goroutine count drops to base
// (the idiom of internal/core/stream_pipeline_test.go).
func goroutinesSettleTo(base int) bool {
	deadline := time.Now().Add(settleDeadline)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return false
}

func checkNoLeaks(t *testing.T, base int) {
	t.Helper()
	if !goroutinesSettleTo(base) {
		t.Errorf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
	}
}

// newTestServer boots a server on an ephemeral port and tears it down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, addr.String()
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestServerEncodeDecodeRoundTrip(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialTest(t, addr)
	ctx := testCtx(t)

	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)

	container, err := c.Encode(ctx, 0, 0, data) // method 0: server default
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := c.Decode(ctx, container)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode did not return the original bytes")
	}
	if rep != (Report{}) {
		t.Fatalf("clean container reported repairs: %+v", rep)
	}
	if rep, err := c.Verify(ctx, container); err != nil || rep != (Report{}) {
		t.Fatalf("verify: %+v, %v", rep, err)
	}

	// An explicit configuration must round-trip too.
	container2, err := c.Encode(ctx, ecc.MethodHamming, 8, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := c.Decode(ctx, container2); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("hamming8 round trip failed: %v", err)
	}
}

func TestServerDecodeRepairsCorruption(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialTest(t, addr)
	ctx := testCtx(t)

	data := bytes.Repeat([]byte("resilient data "), 100)
	container, err := c.Encode(ctx, ecc.MethodSECDED, 64, data)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), container...)
	faultinject.FlipBitInPlace(mut[core.ContainerOverheadBytes:], 8*8*3+5) // one bit in data block 3

	got, rep, err := c.Decode(ctx, mut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode did not repair the flipped bit")
	}
	if rep.CorrectedBits != 1 || rep.DetectedBlocks != 1 {
		t.Fatalf("report = %+v, want 1 corrected bit in 1 detected block", rep)
	}
}

func TestServerRepairRestoresBudget(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialTest(t, addr)
	ctx := testCtx(t)

	data := bytes.Repeat([]byte("abcdefgh"), 64)
	container, err := c.Encode(ctx, ecc.MethodSECDED, 64, data)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), container...)
	faultinject.FlipBitInPlace(mut[core.ContainerOverheadBytes:], 3)

	fresh, rep, err := c.Repair(ctx, mut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorrectedBits != 1 {
		t.Fatalf("repair report = %+v", rep)
	}
	// The fresh container decodes cleanly — corrections folded in, no
	// residual damage.
	res, err := core.DecodeContainer(nil, fresh, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) || res.Report.DetectedBlocks != 0 {
		t.Fatalf("repaired container: %d detected blocks", res.Report.DetectedBlocks)
	}
}

func TestServerUncorrectableIsLoud(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialTest(t, addr)
	ctx := testCtx(t)

	data := bytes.Repeat([]byte("x"), 4096)
	container, err := c.Encode(ctx, ecc.MethodSECDED, 64, data)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), container...)
	// Two flips in one SEC-DED block: detectable, beyond correction.
	faultinject.FlipBitInPlace(mut[core.ContainerOverheadBytes:], 8*8*2+1)
	faultinject.FlipBitInPlace(mut[core.ContainerOverheadBytes:], 8*8*2+9)

	got, _, err := c.Decode(ctx, mut)
	if !IsUncorrectable(err) {
		t.Fatalf("err = %v, want uncorrectable", err)
	}
	if got != nil {
		t.Fatal("uncorrectable decode returned data")
	}
	if _, _, err := c.Repair(ctx, mut); !IsUncorrectable(err) {
		t.Fatalf("repair err = %v, want uncorrectable", err)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialTest(t, addr)
	ctx := testCtx(t)

	var re *RemoteErr
	if _, _, err := c.Decode(ctx, []byte("not a container")); !errors.As(err, &re) || re.Status != StatusBadRequest {
		t.Fatalf("garbage decode: err = %v, want bad-request", err)
	}
	if _, err := c.Encode(ctx, ecc.Method(200), 7, []byte("data")); !errors.As(err, &re) || re.Status != StatusBadRequest {
		t.Fatalf("bogus method: err = %v, want bad-request", err)
	}
	// The connection survives bad requests.
	if _, err := c.Encode(ctx, 0, 0, []byte("still works")); err != nil {
		t.Fatalf("connection did not survive bad requests: %v", err)
	}
}

func TestServerStats(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialTest(t, addr)
	ctx := testCtx(t)

	if _, err := c.Encode(ctx, 0, 0, []byte("count me")); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.LiveSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests < 1 || snap.ConnsActive < 1 || snap.BytesIn == 0 {
		t.Fatalf("stats snapshot: %+v", snap)
	}
	if len(snap.Ops) != len(OpNames()) || snap.Ops[0].Name != "encode" || snap.Ops[0].Requests != 1 {
		t.Fatalf("per-op stats: %+v", snap.Ops)
	}
}

// TestServerOversizedFrame checks the bounded-allocation refusal: the
// server answers with StatusOversized addressed to the right op, then
// closes the connection.
func TestServerOversizedFrame(t *testing.T) {
	_, addr := newTestServer(t, Config{MaxPayload: 1024})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }() // already closed by the server on the happy path

	big := appendEncodeRequest(nil, 0, 0, make([]byte, 4096))
	if err := writeFrame(conn, Frame{Op: OpEncode, Status: StatusRequest, Payload: big}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(conn, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != OpEncode || f.Status != StatusOversized {
		t.Fatalf("response = %s/%s, want encode/oversized", f.Op, f.Status)
	}
	// The stream is done: the server closes after the refusal.
	if _, err := ReadFrame(conn, 0, nil); err == nil {
		t.Fatal("connection survived an oversized frame")
	}
}

func TestServerMalformedFrameDropsConnection(t *testing.T) {
	s, addr := newTestServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }() // server closes first; this is belt and braces

	if _, err := conn.Write(bytes.Repeat([]byte{0xFF}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := readUntilClosed(conn); err != nil {
		t.Fatal(err)
	}
	if s.Stats().FrameErrors == 0 {
		t.Fatal("malformed frame not counted")
	}
}

// readUntilClosed drains conn until the peer closes it. A reset
// counts: the server closing with unread client bytes in its receive
// buffer surfaces as ECONNRESET rather than a clean EOF.
func readUntilClosed(conn net.Conn) error {
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	for {
		var b [256]byte
		if _, err := conn.Read(b[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
				return nil
			}
			return err
		}
	}
}

// TestServerPipelinedResponsesInOrder writes a burst of requests
// before reading anything, then checks the responses come back in
// submission order — the parallel.Pipe ordering contract on the wire.
func TestServerPipelinedResponsesInOrder(t *testing.T) {
	_, addr := newTestServer(t, Config{Workers: 4, Window: 16})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }() // test cleanup

	// Mix sizes so processing times differ: ordering must come from
	// the pipeline, not from uniform timing.
	const n = 12
	sizes := make([]int, n)
	var burst []byte
	for i := range sizes {
		sizes[i] = 128 << (i % 5)
		payload := appendEncodeRequest(nil, 0, 0, bytes.Repeat([]byte{byte(i)}, sizes[i]))
		burst = appendFrame(burst, Frame{Op: OpEncode, Status: StatusRequest, Payload: payload})
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f, err := ReadFrame(conn, 0, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if f.Op != OpEncode || f.Status != StatusOK {
			t.Fatalf("response %d: %s/%s", i, f.Op, f.Status)
		}
		res, err := core.DecodeContainer(nil, f.Payload, 1)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if len(res.Data) != sizes[i] || (sizes[i] > 0 && res.Data[0] != byte(i)) {
			t.Fatalf("response %d out of order: got %d-byte payload", i, len(res.Data))
		}
	}
}

// TestArcdShutdownDrains is the graceful-drain regression: requests
// already accepted when Shutdown begins still get their responses, and
// no goroutine outlives the server.
func TestArcdShutdownDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, Window: 16})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Two connections: one large encode occupies the single budget
	// slot while the other conn's request queues behind it, so both
	// are in flight when Shutdown starts.
	connA, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = connA.Close() }() // server closes on drain; belt and braces
	connB, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = connB.Close() }() // as above

	bigReq := appendEncodeRequest(nil, 0, 0, make([]byte, 2<<20))
	if err := writeFrame(connA, Frame{Op: OpEncode, Status: StatusRequest, Payload: bigReq}); err != nil {
		t.Fatal(err)
	}
	smallReq := appendEncodeRequest(nil, 0, 0, []byte("queued behind the big one"))
	if err := writeFrame(connB, Frame{Op: OpEncode, Status: StatusRequest, Payload: smallReq}); err != nil {
		t.Fatal(err)
	}

	// Let the server pull both requests off the sockets before the
	// drain begins.
	waitFor(t, func() bool { return s.Stats().ConnsActive == 2 })
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Both responses must have been flushed before the drain closed
	// the connections.
	for i, conn := range []net.Conn{connA, connB} {
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(conn, 0, nil)
		if err != nil {
			t.Fatalf("conn %d: response lost in shutdown: %v", i, err)
		}
		if f.Status != StatusOK {
			t.Fatalf("conn %d: status %s", i, f.Status)
		}
	}
	checkNoLeaks(t, base)
}

// TestArcdClientDisconnectMidStream kills clients at the nastiest
// moments — mid-header, mid-payload, and with responses unread — and
// checks the server neither leaks goroutines nor stops serving.
func TestArcdClientDisconnectMidStream(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Window: 2})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	abandon := func(t *testing.T, write func(conn net.Conn)) {
		t.Helper()
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		write(conn)
		_ = conn.Close() // the abrupt disconnect under test
	}

	t.Run("mid header", func(t *testing.T) {
		abandon(t, func(conn net.Conn) {
			_, _ = conn.Write([]byte{0x41, 0xF7, 1}) // partial header, then gone
		})
	})
	t.Run("mid payload", func(t *testing.T) {
		abandon(t, func(conn net.Conn) {
			full := appendFrame(nil, Frame{Op: OpEncode, Status: StatusRequest, Payload: make([]byte, 100_000)})
			_, _ = conn.Write(full[:len(full)/2]) // half the promised payload
		})
	})
	t.Run("responses unread", func(t *testing.T) {
		abandon(t, func(conn net.Conn) {
			var burst []byte
			for i := 0; i < 8; i++ {
				payload := appendEncodeRequest(nil, 0, 0, bytes.Repeat([]byte{1}, 64<<10))
				burst = appendFrame(burst, Frame{Op: OpEncode, Status: StatusRequest, Payload: payload})
			}
			_, _ = conn.Write(burst) // never reads a single response
		})
	})

	// Every abandoned connection's handler must wind down on its own.
	waitFor(t, func() bool { return s.Stats().ConnsActive == 0 })

	// And the server still serves.
	c := dialTest(t, addr.String())
	if _, err := c.Encode(testCtx(t), 0, 0, []byte("alive")); err != nil {
		t.Fatalf("server wedged after disconnects: %v", err)
	}
	_ = c.Close() // before the leak check, so its conn's handler exits

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, base)
}

// waitFor polls cond until it holds or the settle deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(settleDeadline)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// TestServerSoakConcurrentClients is the race-mode soak: many clients,
// many mixed requests, every response checked, no leaks afterwards.
func TestServerSoakConcurrentClients(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 4, Window: 4})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	perClient := 30
	if testing.Short() {
		perClient = 8
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			errs <- soakClient(ctx, addr.String(), cl, perClient)
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	snap := s.Stats()
	if want := int64(clients * perClient); snap.Requests < want {
		t.Fatalf("server counted %d requests, want >= %d", snap.Requests, want)
	}
	if snap.Errors != 0 {
		t.Fatalf("server counted %d request errors", snap.Errors)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, base)
}

func soakClient(ctx context.Context, addr string, id, requests int) error {
	c, err := Dial(ctx, addr, 0)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }() // errors already reported via return

	rng := rand.New(rand.NewSource(int64(id)))
	data := make([]byte, 256+rng.Intn(8<<10))
	rng.Read(data)
	container, err := c.Encode(ctx, 0, 0, data)
	if err != nil {
		return fmt.Errorf("client %d: encode: %w", id, err)
	}
	for i := 0; i < requests; i++ {
		switch i % 3 {
		case 0:
			got, _, err := c.Decode(ctx, container)
			if err != nil {
				return fmt.Errorf("client %d req %d: decode: %w", id, i, err)
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("client %d req %d: decode mismatch", id, i)
			}
		case 1:
			if _, err := c.Verify(ctx, container); err != nil {
				return fmt.Errorf("client %d req %d: verify: %w", id, i, err)
			}
		default:
			fresh, err := c.Encode(ctx, 0, 0, data)
			if err != nil {
				return fmt.Errorf("client %d req %d: encode: %w", id, i, err)
			}
			container = fresh
		}
	}
	return nil
}

// TestServerRejectsResponseStatusRequests: a frame claiming to be a
// response has no business arriving at a server.
func TestServerRejectsResponseStatusRequests(t *testing.T) {
	s, addr := newTestServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }() // server closes first on this path

	if err := writeFrame(conn, Frame{Op: OpStats, Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	if err := readUntilClosed(conn); err != nil {
		t.Fatal(err)
	}
	if s.Stats().FrameErrors == 0 {
		t.Fatal("response-status request not counted as a frame error")
	}
}

func TestServerServeTwiceAndAfterClose(t *testing.T) {
	s := New(Config{})
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("second Listen succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{})
	_ = s2.Close()
	if _, err := s2.Listen("127.0.0.1:0"); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Listen after Close: err = %v, want ErrServerClosed", err)
	}
}
