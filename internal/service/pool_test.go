package service

// Pooled frame buffers: a response's buffers go back to the pool only
// after its frame is on the socket, the pool keeps no buffer above
// maxPooledBuf, and an ENCODE+DECODE pair costs the server no payload
// allocation once warm.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/raceflag"
)

// wantResponse is what the server must answer to one request, computed
// locally with internal/core. stats marks a STATS request, whose body
// is only checked to be JSON.
type wantResponse struct {
	op      Op
	status  Status
	payload []byte
	stats   bool
}

// localDecode mirrors DECODE, VERIFY and REPAIR on this side of the wire.
func localDecode(op Op, container []byte) wantResponse {
	res, err := core.DecodeContainer(nil, container, 1)
	if err != nil {
		st, msg := decodeFailure(err)
		return wantResponse{op: op, status: st, payload: []byte(msg)}
	}
	out := AppendReport(nil, Report{
		DetectedBlocks:  res.Report.DetectedBlocks,
		CorrectedBits:   res.Report.CorrectedBits,
		CorrectedBlocks: res.Report.CorrectedBlocks,
	})
	switch op {
	case OpDecode:
		out = append(out, res.Data...)
	case OpRepair:
		enc, err := core.EncodeContainerWith(nil, res.Data, core.Choice{Config: res.Config, Threads: 1})
		if err != nil {
			return wantResponse{op: op, status: StatusInternal, payload: []byte(err.Error())}
		}
		out = append(out, enc.Encoded...)
	}
	return wantResponse{op: op, status: StatusOK, payload: out}
}

// mixedRequest builds one request of the recycling test's mix — every
// operation, sizes from 0 B to 200 KiB, bad requests among them — and
// the response it must get.
func mixedRequest(rng *rand.Rand, configs []core.Config, plain []byte) ([]byte, wantResponse) {
	size := []int{0, 1, 17, 4 << 10, 64 << 10, 200 << 10, rng.Intn(200 << 10)}[rng.Intn(7)]
	data := make([]byte, size)
	rng.Read(data)
	cfg := configs[rng.Intn(len(configs))]
	container := func() []byte {
		enc, err := core.EncodeContainerWith(nil, data, core.Choice{Config: cfg, Threads: 1})
		if err != nil {
			panic(err)
		}
		c := enc.Encoded
		for i := rng.Intn(4); i > 0; i-- { // 0-3 flips: repaired or refused
			bit := rng.Intn(8 * len(c))
			c[bit/8] ^= 1 << (bit % 8)
		}
		return c
	}
	switch k := rng.Intn(10); k {
	case 0, 1:
		enc, err := core.EncodeContainerWith(nil, data, core.Choice{Config: cfg, Threads: 1})
		if err != nil {
			panic(err)
		}
		return appendEncodeRequest(nil, cfg.Method, cfg.Param, data), wantResponse{op: OpEncode, status: StatusOK, payload: enc.Encoded}
	case 2:
		_, _, _, err := ParseEncodeRequest(data[:min(size, 2)])
		return data[:min(size, 2)], wantResponse{op: OpEncode, status: StatusBadRequest, payload: []byte(err.Error())}
	case 3, 4:
		c := container()
		return c, localDecode(OpDecode, c)
	case 5:
		c := container()
		return c, localDecode(OpVerify, c)
	case 6:
		c := container()
		return c, localDecode(OpRepair, c)
	case 7:
		// Garbage is a bad request, not a crash or a wrong answer.
		return data, localDecode([]Op{OpDecode, OpVerify, OpRepair}[rng.Intn(3)], data)
	case 8:
		first := rng.Intn(len(plain))
		n := rng.Intn(96 << 10)
		want := AppendReport(nil, Report{})
		want = append(want, plain[first:min(first+n, len(plain))]...)
		return AppendReadRangeRequest(nil, "a.arc", int64(first), int64(n)), wantResponse{op: OpReadRange, status: StatusOK, payload: want}
	default:
		return nil, wantResponse{op: OpStats, status: StatusOK, stats: true}
	}
}

// TestPooledBuffersNeverReusedEarly sends full-window bursts of mixed
// requests over one connection and checks every response byte for byte
// against internal/core. Responses queue behind the writer while later
// requests run, so a buffer recycled before its frame was written is
// overwritten by another request's result and this test fails.
func TestPooledBuffersNeverReusedEarly(t *testing.T) {
	const window, bursts = 64, 3
	dir := t.TempDir()
	plain := writeTestArchive(t, dir, "a.arc", 256<<10, 32<<10)
	_, addr := newTestServer(t, Config{Workers: 4, Window: window, Root: dir})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }() // test cleanup
	if err := conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	configs := core.AllConfigs()
	var scratch []byte
	for b := 0; b < bursts; b++ {
		var burst []byte
		want := make([]wantResponse, window)
		for i := range want {
			var payload []byte
			payload, want[i] = mixedRequest(rng, configs, plain)
			burst = appendFrame(burst, Frame{Op: want[i].op, Status: StatusRequest, Payload: payload})
		}
		// The whole burst goes out at once while responses come back:
		// neither side of the socket may wait for the other.
		sent := make(chan error, 1)
		go func() {
			_, err := conn.Write(burst)
			sent <- err
		}()
		for i, w := range want {
			f, err := ReadFrame(conn, 0, scratch[:0])
			if err != nil {
				t.Fatalf("burst %d response %d: %v", b, i, err)
			}
			scratch = f.Payload
			if f.Op != w.op || f.Status != w.status {
				t.Fatalf("burst %d response %d: %s/%s, want %s/%s (%.80q)", b, i, f.Op, f.Status, w.op, w.status, f.Payload)
			}
			switch {
			case w.stats:
				if !json.Valid(f.Payload) {
					t.Fatalf("burst %d response %d: STATS body is not JSON", b, i)
				}
			case !bytes.Equal(f.Payload, w.payload):
				t.Fatalf("burst %d response %d (%s, %d bytes): payload differs from the local result", b, i, w.op, len(w.payload))
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolDropsOversizedBuffers serves a 4 MiB ENCODE and checks that
// neither its request nor its response buffer stays in the pool.
func TestPoolDropsOversizedBuffers(t *testing.T) {
	if putBuf(&frameBuf{b: make([]byte, maxPooledBuf+1)}) {
		t.Fatal("putBuf kept a buffer above maxPooledBuf")
	}
	if !putBuf(&frameBuf{b: make([]byte, 64<<10)}) {
		t.Fatal("putBuf dropped a 64 KiB buffer")
	}

	// On one processor every Put of the server lands in the pool shard
	// this goroutine drains below.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, addr := newTestServer(t, Config{})
	c := dialTest(t, addr)
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(4)).Read(data)
	container, err := c.Encode(testCtx(t), 0, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EncodeContainerWith(nil, data, core.Choice{Config: core.Config{Method: ecc.MethodSECDED, Param: 64}, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(container, want.Encoded) {
		t.Fatal("4 MiB ENCODE: container differs from the local encoding")
	}
	// The writer recycles the ENCODE's buffers before it writes the
	// next response, so a STATS round trip orders this check after it.
	if _, err := c.Stats(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		fb := getBuf()
		if cap(fb.b) > maxPooledBuf {
			t.Fatalf("the pool kept a %d-byte buffer (cap %d)", cap(fb.b), maxPooledBuf)
		}
		if fb.b == nil {
			break // a fresh wrapper: the pool is empty
		}
	}
}

// serveEncodeDecode runs ENCODE then DECODE of data and checks both.
func serveEncodeDecode(ctx context.Context, c *Client, data, want []byte) error {
	container, err := c.Encode(ctx, ecc.MethodSECDED, 64, data)
	if err != nil {
		return err
	}
	if !bytes.Equal(container, want) {
		return fmt.Errorf("ENCODE: container differs from the local encoding")
	}
	got, _, err := c.Decode(ctx, container)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("DECODE: wrong bytes")
	}
	return nil
}

// encodeDecodeFixture boots a server and a client over loopback and
// returns a 64 KiB payload with its secded64 container.
func encodeDecodeFixture(tb testing.TB) (*Client, []byte, []byte) {
	s := New(Config{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	c, err := Dial(context.Background(), addr.String(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(64)).Read(data)
	enc, err := core.EncodeContainerWith(nil, data, core.Choice{Config: core.Config{Method: ecc.MethodSECDED, Param: 64}, Threads: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return c, data, enc.Encoded
}

// BenchmarkServeEncodeDecode is one ENCODE+DECODE pair of a 64 KiB
// secded64 payload over loopback, server and client in this process.
func BenchmarkServeEncodeDecode(b *testing.B) {
	c, data, want := encodeDecodeFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(2 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serveEncodeDecode(ctx, c, data, want); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeEncodeDecodeAllocs gates BenchmarkServeEncodeDecode's bytes:
// once warm, a pair allocates the client's two copy-outs (the 72 KiB
// container, the 64 KiB data) and small change — no server-side payload
// buffer, no frame copy.
func TestServeEncodeDecodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	c, data, want := encodeDecodeFixture(t)
	ctx := context.Background()
	for i := 0; i < 50; i++ { // warm the pool and the client's scratch
		if err := serveEncodeDecode(ctx, c, data, want); err != nil {
			t.Fatal(err)
		}
	}
	const pairs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		if err := serveEncodeDecode(ctx, c, data, want); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perPair := (after.TotalAlloc - before.TotalAlloc) / pairs
	if budget := uint64(2*72<<10 + 16<<10); perPair > budget {
		t.Fatalf("an ENCODE+DECODE pair allocates %d B, budget %d B", perPair, budget)
	}
	t.Logf("%d B per ENCODE+DECODE pair", perPair)
}
