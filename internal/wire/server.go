package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// MaxFrame bounds one request in bytes, newlines included. It applies
// to everything a server reads from a client; a request that runs past
// it drops the connection without a reply, exactly like a malformed
// frame. Replies are not bounded: a client reading a list reply, or the
// router reading a shard's, may legitimately see more.
const MaxFrame = 1 << 20

var errTooLarge = errors.New("wire: request exceeds MaxFrame")

// Server accepts connections on one listener and serves each on its
// own goroutine under the drain contract.
type Server struct {
	name   string
	handle func(*Conn)

	mu       sync.Mutex
	listener net.Listener
	conns    map[*Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer returns an unstarted server. name prefixes its errors;
// handle serves one connection, which closes when handle returns.
func NewServer(name string, handle func(*Conn)) *Server {
	return &Server{name: name, handle: handle, conns: make(map[*Conn]struct{})}
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", s.name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return "", fmt.Errorf("%s: listen: %w", s.name, net.ErrClosed)
	}
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := s.track(nc)
		if c == nil {
			return
		}
		go s.serve(c)
	}
}

// ServeConn serves one connection on the calling goroutine, exactly as
// the accept loop serves an accepted one, and returns once it has
// closed. Fuzzers drive a daemon through it with scripted conns.
func (s *Server) ServeConn(nc net.Conn) {
	if c := s.track(nc); c != nil {
		s.serve(c)
	}
}

// track registers a connection, or closes it and returns nil once the
// server is closed: every connection either is in the set Drain and
// Close act on, or never serves.
func (s *Server) track(nc net.Conn) *Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		nc.Close()
		return nil
	}
	c := &Conn{Conn: nc, br: bufio.NewReader(nc)}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return c
}

func (s *Server) serve(c *Conn) {
	defer s.wg.Done()
	s.handle(c)
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Close stops the listener and every connection at once, in-flight
// requests included, and waits for the handlers to return. Prefer Drain
// for an orderly shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	err := s.stop()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Drain shuts the server down gracefully: the listener closes first
// (new connections are refused), idle connections drop at once, and a
// connection with a request mid-flight finishes writing that one reply
// before closing. Drain returns once every connection has exited, or
// force-closes the stragglers and returns ctx.Err() when the context
// expires first. Draining a drained or closed server returns nil.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.stop()
	for c := range s.conns {
		c.drain()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close the stragglers' sockets so their clients unblock,
		// but do not wait: a handler stuck inside the service (not on
		// I/O) only exits when that call returns.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// stop marks the server closed, so the accept loop refuses any
// connection racing it, and closes the listener. s.mu must be held.
func (s *Server) stop() error {
	s.closed = true
	ln := s.listener
	s.listener = nil
	if ln == nil {
		return nil
	}
	return ln.Close()
}

// Conn is one served connection: the socket, its bounded frame reader,
// and its drain state — whether a request is in flight, and whether
// the connection must close once it is not.
type Conn struct {
	net.Conn
	br  *bufio.Reader
	buf []byte // reassembles a frame longer than br's buffer

	mu            sync.Mutex
	busy          bool
	closeWhenIdle bool
}

// readFrame returns the next frame: the bytes up to and including the
// next '\n', valid until the next call. A frame longer than MaxFrame
// fails with an error, having read at most one buffer beyond the bound.
func (c *Conn) readFrame() ([]byte, error) {
	frame, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.buf = append(c.buf[:0], frame...)
		for err == bufio.ErrBufferFull && len(c.buf) <= MaxFrame {
			frame, err = c.br.ReadSlice('\n')
			c.buf = append(c.buf, frame...)
		}
		frame = c.buf
	}
	if len(frame) > MaxFrame {
		return nil, errTooLarge
	}
	return frame, err
}

// Serve runs the request loop: each frame the client sends is handed to
// handle as one in-flight request, and handle reports whether the
// connection stays open. Serve returns when the client hangs up or
// oversteps MaxFrame, when handle returns false, and when the server
// drains — a frame read after the drain began is dropped unstarted.
func (c *Conn) Serve(handle func(frame []byte) bool) {
	for {
		frame, err := c.readFrame()
		if err != nil || !c.begin() {
			return
		}
		ok := handle(frame)
		if c.end() || !ok {
			return
		}
	}
}

// begin marks a request in flight; it reports false when the server is
// draining and the request must not start.
func (c *Conn) begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeWhenIdle {
		return false
	}
	c.busy = true
	return true
}

// end clears the in-flight mark and reports whether the connection must
// close now that its request has finished.
func (c *Conn) end() (quit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = false
	return c.closeWhenIdle
}

// drain flags the connection for shutdown: an idle one (blocked reading
// its next request) closes on the spot, a busy one right after writing
// its in-flight reply.
func (c *Conn) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeWhenIdle = true
	if !c.busy {
		c.Close()
	}
}
