package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// echoServer serves a line-echo protocol: every frame comes back
// verbatim, except "block\n", which first signals entered and parks
// until gate closes — a request held in flight on demand.
func echoServer(t *testing.T) (srv *Server, addr string, entered, gate chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 1)
	gate = make(chan struct{})
	srv = NewServer("echo", func(c *Conn) {
		c.Serve(func(frame []byte) bool {
			if string(frame) == "block\n" {
				entered <- struct{}{}
				<-gate
			}
			_, err := c.Write(frame)
			return err == nil
		})
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, entered, gate
}

type client struct {
	net.Conn
	br *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{Conn: nc, br: bufio.NewReader(nc)}
}

// roundTrip sends one frame and reads one reply line, failing rather
// than hanging if the server neither answers nor closes within 5s.
func (c *client) roundTrip(frame string) (string, error) {
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, frame); err != nil {
		return "", err
	}
	return c.br.ReadString('\n')
}

// requireClosed asserts the server closed c: a read ends in EOF or a
// reset, not in the 5s deadline.
func requireClosed(t *testing.T, c *client, what string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: connection still open (%v)", what, err)
	}
}

// TestServerDrainFinishesInFlight: Drain lets a request being processed
// write its reply before the connection closes, while idle connections
// drop at once and new ones are refused.
func TestServerDrainFinishesInFlight(t *testing.T) {
	srv, addr, entered, gate := echoServer(t)
	busy := dial(t, addr)
	idle := dial(t, addr)
	// One round trip guarantees the server is serving the idle
	// connection before Drain acts on its connection set.
	if got, err := idle.roundTrip("ping\n"); err != nil || got != "ping\n" {
		t.Fatalf("idle round trip: %q, %v", got, err)
	}
	reply := make(chan string, 1)
	go func() {
		got, _ := busy.roundTrip("block\n")
		reply <- got
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// The idle connection drops without waiting for the busy one.
	requireClosed(t, idle, "idle connection during drain")

	// New connections are refused; some kernels still accept into the
	// backlog of a closed listener, but then nothing is served.
	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		late := &client{Conn: nc, br: bufio.NewReader(nc)}
		if got, err := late.roundTrip("ping\n"); err == nil {
			t.Fatalf("request on a draining server answered: %q", got)
		}
		nc.Close()
	}

	close(gate)
	if got := <-reply; got != "block\n" {
		t.Fatalf("in-flight reply = %q, want the full frame", got)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	requireClosed(t, busy, "busy connection after its reply")
}

// TestServerDrainTimeoutForcesClose: a connection that never finishes
// its in-flight request cannot hold Drain hostage past the context; its
// socket is force-closed so the client unblocks.
func TestServerDrainTimeoutForcesClose(t *testing.T) {
	srv, addr, entered, gate := echoServer(t)
	defer close(gate)
	c := dial(t, addr)
	if _, err := io.WriteString(c, "block\n"); err != nil {
		t.Fatal(err)
	}
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want context.DeadlineExceeded", err)
	}
	requireClosed(t, c, "straggler after drain timeout")
}

// TestServerDrainIdempotent: draining twice, or after Close, returns
// nil at once instead of deadlocking.
func TestServerDrainIdempotent(t *testing.T) {
	srv, _, _, _ := echoServer(t)
	ctx := context.Background()
	for i, stop := range []func() error{
		func() error { return srv.Drain(ctx) },
		func() error { return srv.Drain(ctx) },
		srv.Close,
		func() error { return srv.Drain(ctx) },
	} {
		if err := stop(); err != nil {
			t.Fatalf("stop %d: %v", i, err)
		}
	}
}

// TestServerCloseUnblocksClients: requests after Close fail instead of
// hanging.
func TestServerCloseUnblocksClients(t *testing.T) {
	srv, addr, _, _ := echoServer(t)
	c := dial(t, addr)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := c.roundTrip("ping\n"); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("round trip after close: %q, %v", got, err)
	}
}

// scriptConn is a scripted net.Conn: reads come from in, writes
// accumulate in out, and read counts the bytes the server consumed.
type scriptConn struct {
	in   io.Reader
	read int
	out  bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	n, err := c.in.Read(p)
	c.read += n
	return n, err
}
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// endless yields 'x' forever: an unterminated frame of any length
// without allocating it.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestReadFrameBound: a frame of exactly MaxFrame bytes is served, one
// byte more drops the connection unanswered, and an endless frame is
// abandoned after reading at most one buffer past the bound.
func TestReadFrameBound(t *testing.T) {
	echo := NewServer("echo", func(c *Conn) {
		c.Serve(func(frame []byte) bool {
			_, err := c.Write(frame)
			return err == nil
		})
	})
	atBound := strings.Repeat("a", MaxFrame-1) + "\n"
	over := strings.Repeat("b", MaxFrame) + "\n"
	conn := &scriptConn{in: strings.NewReader(atBound + over + "after\n")}
	echo.ServeConn(conn)
	if conn.out.String() != atBound {
		t.Fatalf("served %d bytes, want exactly the %d-byte frame at the bound", conn.out.Len(), len(atBound))
	}

	conn = &scriptConn{in: endless{}}
	echo.ServeConn(conn)
	if limit := MaxFrame + 2*4096; conn.read > limit {
		t.Fatalf("read %d bytes of an endless frame, want at most %d", conn.read, limit)
	}
}

func TestDecode(t *testing.T) {
	for _, tc := range []struct {
		frame string
		ok    bool
	}{
		{`{"op":"ping"}` + "\n", true},
		{` {"op":"ping"} ` + "\r\n", true},
		{"\n", false},
		{`{"op":"ping"} {"op":"ping"}` + "\n", false},
		{`{"op":` + "\n", false},
		{"null\n", false},
		{`["ping"]` + "\n", false},
		{"ping\n", false},
	} {
		var v struct{ Op string }
		if err := Decode([]byte(tc.frame), &v); (err == nil) != tc.ok {
			t.Errorf("Decode(%q) = %v, want ok=%v", tc.frame, err, tc.ok)
		}
	}
}
