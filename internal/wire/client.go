package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Client is the client half of the newline-JSON protocol: one
// connection on which Do sends a Req as one frame and decodes the next
// reply line into a Resp. The protocols are session oriented, so a
// connection carries one request at a time. Each caller picks its
// reply type; a load generator that only counts outcomes decodes
// Status and skips the payload.
type Client[Req, Resp any] struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// Status is the head of every reply the repository's protocols send:
// whether the request succeeded and, if not, why.
type Status struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Dial connects a client to the server at addr.
func Dial[Req, Resp any](ctx context.Context, addr string) (*Client[Req, Resp], error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	return &Client[Req, Resp]{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}, nil
}

// Do performs one round trip. After an error the connection's state is
// unknown, and the caller should close it. A round trip that overran
// the deadline fails with an error that wraps os.ErrDeadlineExceeded.
func (c *Client[Req, Resp]) Do(req Req) (Resp, error) {
	var resp Resp
	if err := c.enc.Encode(req); err != nil {
		return resp, fmt.Errorf("wire: send: %w", err)
	}
	if err := c.dec.Decode(&resp); err != nil {
		return resp, fmt.Errorf("wire: recv: %w", err)
	}
	return resp, nil
}

// SetDeadline bounds the round trips that follow, both directions.
func (c *Client[Req, Resp]) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Close closes the connection.
func (c *Client[Req, Resp]) Close() error { return c.conn.Close() }

// Schedule paces a load generator's connections as one open loop:
// request i of connection c is due at
//
//	Start + (i·Conns + c) / Rate
//
// so the connections interleave at the aggregate Rate instead of
// sending in bursts of one request each. A generator times each
// request from its due time, not from its send: a stalled reply delays
// the requests queued behind it on its connection, and that wait shows
// in their latency instead of vanishing from the sample. The latency
// therefore also holds any lateness of the generator itself. Rate 0 is
// a closed loop, in which a request is due when it is sent.
type Schedule struct {
	Start time.Time
	Rate  float64 // requests per second over all connections
	Conns int
}

// Due returns when request i of connection c is due; in a closed loop,
// now.
func (s Schedule) Due(c, i int) time.Time {
	if s.Rate <= 0 {
		return time.Now()
	}
	return s.Start.Add(time.Duration(float64(i*s.Conns+c) * float64(time.Second) / s.Rate))
}

// Wait blocks until request i of connection c is due and returns its
// due time, or returns ctx's error if ctx ends first.
func (s Schedule) Wait(ctx context.Context, c, i int) (time.Time, error) {
	due := s.Due(c, i)
	if d := time.Until(due); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return due, ctx.Err()
}
