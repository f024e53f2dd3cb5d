package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/ecc"
)

// Client is a synchronous arcd client: each call writes one request
// frame and reads its response. A Client is NOT safe for concurrent
// use — open one Client per worker (the load generator does exactly
// that), or speak raw frames over one connection to use the server's
// per-connection pipelining.
type Client struct {
	conn       net.Conn
	fw         frameWriter
	scratch    []byte // response payload buffer, reused across calls
	maxPayload int
}

// Dial connects to an arcd server. maxPayload bounds accepted
// response payloads (<= 0 means DefaultMaxPayload).
func Dial(ctx context.Context, addr string, maxPayload int) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &Client{conn: conn, maxPayload: maxPayload}, nil
}

// Close closes the connection. In-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// RemoteErr is a non-OK response: the server refused or failed the
// request. Status carries the protocol verdict, Msg the server's
// explanation.
type RemoteErr struct {
	Op     Op
	Status Status
	Msg    string
}

// Error implements error.
func (e *RemoteErr) Error() string {
	return fmt.Sprintf("service: %s: %s: %s", e.Op, e.Status, e.Msg)
}

// IsUncorrectable reports whether err is a StatusUncorrectable
// response — damage beyond the container's ECC budget, detected and
// refused rather than silently returned.
func IsUncorrectable(err error) bool {
	var re *RemoteErr
	return errors.As(err, &re) && re.Status == StatusUncorrectable
}

// roundTrip performs one call whose request payload is head followed
// by body, sent as one frame without joining them. The returned
// payload aliases the client's scratch buffer: it is valid until the
// next call.
func (c *Client) roundTrip(ctx context.Context, op Op, head, body []byte) ([]byte, error) {
	if deadline, ok := ctx.Deadline(); ok {
		if err := c.conn.SetDeadline(deadline); err != nil {
			return nil, err
		}
	} else if err := c.conn.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.fw.write(c.conn, op, StatusRequest, head, body); err != nil {
		return nil, err
	}
	f, err := ReadFrame(c.conn, c.maxPayload, c.scratch[:0])
	if err != nil {
		return nil, err
	}
	if cap(f.Payload) > cap(c.scratch) {
		c.scratch = f.Payload
	}
	if f.Op != op {
		return nil, fmt.Errorf("%w: response op %s for a %s request", ErrBadFrame, f.Op, op)
	}
	if f.Status != StatusOK {
		return nil, &RemoteErr{Op: f.Op, Status: f.Status, Msg: string(f.Payload)}
	}
	return f.Payload, nil
}

// Encode asks the server to protect data with the given ECC
// configuration (method 0 selects secded64). It returns
// the ARC container, copied out of the receive buffer.
func (c *Client) Encode(ctx context.Context, method ecc.Method, param int, data []byte) ([]byte, error) {
	h := encodeRequestHeader(method, param)
	out, err := c.roundTrip(ctx, OpEncode, h[:], data)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), out...), nil
}

// Decode asks the server to verify, repair, and unwrap a container.
// It returns the recovered data (copied) and the repair report. On
// over-budget damage the error is a StatusUncorrectable RemoteErr and
// no data is returned.
func (c *Client) Decode(ctx context.Context, container []byte) ([]byte, Report, error) {
	out, err := c.roundTrip(ctx, OpDecode, nil, container)
	if err != nil {
		return nil, Report{}, err
	}
	rep, data, err := ParseReport(out)
	if err != nil {
		return nil, Report{}, err
	}
	return append([]byte(nil), data...), rep, nil
}

// Verify asks the server to verify (and count repairs for) a
// container without returning its data.
func (c *Client) Verify(ctx context.Context, container []byte) (Report, error) {
	out, err := c.roundTrip(ctx, OpVerify, nil, container)
	if err != nil {
		return Report{}, err
	}
	rep, _, err := ParseReport(out)
	return rep, err
}

// Repair asks the server to decode a container and re-encode it
// fresh: the returned container (copied) has all corrections folded
// in and its full ECC budget restored.
func (c *Client) Repair(ctx context.Context, container []byte) ([]byte, Report, error) {
	out, err := c.roundTrip(ctx, OpRepair, nil, container)
	if err != nil {
		return nil, Report{}, err
	}
	rep, fresh, err := ParseReport(out)
	if err != nil {
		return nil, Report{}, err
	}
	return append([]byte(nil), fresh...), rep, nil
}

// ReadRange asks the server to decode n original bytes of the named
// root archive starting at byte first. It returns the decoded bytes
// (copied; fewer than n when the range runs past the archive's end)
// and the repair accounting for the chunks the server decoded serving
// this call — cache-warm ranges report zero.
func (c *Client) ReadRange(ctx context.Context, name string, first, n int64) ([]byte, Report, error) {
	req := AppendReadRangeRequest(make([]byte, 0, rangeReqHeaderLen+len(name)), name, first, n)
	out, err := c.roundTrip(ctx, OpReadRange, nil, req)
	if err != nil {
		return nil, Report{}, err
	}
	rep, data, err := ParseReport(out)
	if err != nil {
		return nil, Report{}, err
	}
	return append([]byte(nil), data...), rep, nil
}

// Stats fetches the server's live counters as raw JSON (a
// metrics.LiveSnapshot).
func (c *Client) Stats(ctx context.Context) ([]byte, error) {
	out, err := c.roundTrip(ctx, OpStats, nil, nil)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), out...), nil
}
