package c3

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Wire protocol: the repo's newline-delimited JSON frames over TCP
// (docs/WIRE_PROTOCOL.md). Three ops — "range" (the k-anonymity
// bucket query), "stats" (index summary) and "ping" (health) — plus
// the shared convention that an unknown op earns an error frame, so
// the router's probe path works against c3d unchanged.

// Request is one client command.
type Request struct {
	Op string `json:"op"`
	// Prefix names a bucket for "range": 1..16 hex digits, value
	// below 2^BucketBits.
	Prefix string `json:"prefix,omitempty"`
}

// Response is the server's reply.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Hashes is the full contents of the queried bucket — every
	// stored credential hash as 16 lower-case hex digits. The client
	// compares its own hash locally; the server never learns which
	// entry (if any) it was after.
	Hashes []string `json:"hashes,omitempty"`
	// Stats fields ("stats" op).
	Credentials int  `json:"credentials,omitempty"`
	Bits        int  `json:"bits,omitempty"`
	Variants    bool `json:"variants,omitempty"`
}

// Server exposes a Store over TCP with the live fleet's drain
// contract: SIGTERM stops the listener, drops idle connections, and
// lets an in-flight request finish its response.
type Server struct {
	*wire.Server
	store *Store
}

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	s := &Server{store: store}
	s.Server = wire.NewServer("c3", s.serveConn)
	return s
}

func (s *Server) serveConn(c *wire.Conn) { wire.ServeJSON(c, s.Handle) }

// Handle executes one request. Exported so the fuzzer and in-process
// callers hit exactly the code path the socket serves.
func (s *Server) Handle(req *Request) Response {
	fail := func(err error) Response { return Response{Error: err.Error()} }
	switch req.Op {
	case "range":
		prefix, err := ParsePrefix(req.Prefix, s.store.Bits())
		if err != nil {
			return fail(err)
		}
		hashes, err := s.store.Range(prefix)
		if err != nil {
			return fail(err)
		}
		out := make([]string, len(hashes))
		for i, h := range hashes {
			out[i] = FormatHash(h)
		}
		return Response{OK: true, Hashes: out, Bits: s.store.Bits()}
	case "stats":
		st := s.store.Stats()
		return Response{OK: true, Credentials: st.Credentials, Bits: st.BucketBits, Variants: st.Variants}
	case "ping":
		return Response{OK: true}
	default:
		return fail(fmt.Errorf("c3: unknown op %q", req.Op))
	}
}

// Client is the c3 wire client.
type Client struct {
	*wire.Client[Request, Response]
}

// Dial connects to a c3 server.
func Dial(ctx context.Context, addr string) (*Client, error) {
	c, err := wire.Dial[Request, Response](ctx, addr)
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// Range queries one bucket and returns its full hashes.
func (c *Client) Range(prefix uint64) ([]uint64, error) {
	resp, err := c.Do(Request{Op: "range", Prefix: fmt.Sprintf("%x", prefix)})
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	out := make([]uint64, len(resp.Hashes))
	for i, h := range resp.Hashes {
		v, err := parseFullHash(h)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Stats queries the index summary.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.Do(Request{Op: "stats"})
	if err != nil {
		return Stats{}, err
	}
	if resp.Error != "" {
		return Stats{}, errors.New(resp.Error)
	}
	return Stats{Credentials: resp.Credentials, BucketBits: resp.Bits, Variants: resp.Variants}, nil
}

func parseFullHash(hex string) (uint64, error) {
	if len(hex) != 16 {
		return 0, fmt.Errorf("c3: hash %q is not 16 hex digits", hex)
	}
	var v uint64
	for i := 0; i < 16; i++ {
		c := hex[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, fmt.Errorf("c3: hash %q is not lower-case hex", hex)
		}
		v = v<<4 | d
	}
	return v, nil
}
